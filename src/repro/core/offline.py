"""Offline optimal scheduling: the 0-1 min-knapsack formulation of §4.

With the bandwidth of every interface known for every future time slot, the
scheduling problem is: choose a set of (interface, slot) items — item
(i, j) has weight ``b(i, j)·d`` bytes and value (cost) ``c(i, j)·b(i, j)·d``
— such that the total weight covers the chunk size ``S`` and the total value
is minimized.  The paper solves this with dynamic programming in
O(N·D·S); Table 2's "Cell % Optimal" column is exactly this solver run on
the recorded bandwidth profiles.

Two additional solvers support testing and ablation:

* :func:`solve_greedy` — the sort-by-cost heuristic sketched in §4 for the
  N-path generalization,
* :func:`fluid_lower_bound` — the continuous relaxation (slots may be used
  fractionally), a strict lower bound the DP must approach within one slot's
  worth of bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

# numpy is imported inside the functions that use it, so reading a trace
# never loads it (docs/architecture.md, "Import boundary").

from .policy import require_positive


@dataclass
class OfflineSolution:
    """Result of an offline schedule computation."""

    #: Total cost of the selected items.
    cost: float
    #: Selected (interface, slot) items.
    selected: List[Tuple[str, int]]
    #: Bytes scheduled per interface.
    bytes_per_path: Dict[str, float] = field(default_factory=dict)
    #: Sum of selected item weights (>= requested size when feasible).
    total_bytes: float = 0.0
    #: Whether the instance was feasible (total capacity covers the size).
    feasible: bool = True

    def fraction_on(self, path: str, size: float) -> float:
        """Fraction of ``size`` carried by ``path`` (overshoot discounted).

        The binary formulation may overshoot ``size`` by part of one slot;
        a real transfer stops at ``size`` bytes, and a cost-minimizing
        execution trims the overshoot from the costliest interface it
        scheduled — so the overshoot is deducted from that one.
        """
        if size <= 0:
            raise ValueError(f"size must be positive: {size!r}")
        scheduled = self.bytes_per_path.get(path, 0.0)
        overshoot = max(0.0, self.total_bytes - size)
        if overshoot > 0 and self.bytes_per_path:
            costliest = max(self.bytes_per_path,
                            key=lambda p: self.bytes_per_path[p])
            if path == costliest:
                scheduled = max(0.0, scheduled - overshoot)
        return min(1.0, scheduled / size)


def _validate(bandwidths: Dict[str, Sequence[float]],
              costs: Dict, slot: float, size: float) -> int:
    if not bandwidths:
        raise ValueError("need at least one interface")
    lengths = {len(series) for series in bandwidths.values()}
    if len(lengths) != 1:
        raise ValueError(f"all interfaces need equal slot counts: {lengths}")
    (num_slots,) = lengths
    if num_slots == 0:
        raise ValueError("need at least one time slot")
    missing = set(bandwidths) - set(costs)
    if missing:
        raise ValueError(f"costs missing for interfaces: {sorted(missing)}")
    for name, cost in costs.items():
        if not isinstance(cost, (int, float)):
            if len(cost) != num_slots:
                raise ValueError(
                    f"per-slot costs for {name!r} have {len(cost)} entries, "
                    f"expected {num_slots}")
    require_positive(slot=slot, size=size)
    return num_slots


def _cost_at(costs: Dict, name: str, j: int) -> float:
    """The §4 formulation's c(i, j): costs may be static per interface
    (a number) or time-varying (a per-slot sequence)."""
    cost = costs[name]
    if isinstance(cost, (int, float)):
        return float(cost)
    return float(cost[j])


def _build_items(bandwidths: Dict[str, Sequence[float]],
                 costs: Dict,
                 slot: float) -> List[Tuple[str, int, float, float]]:
    """Flatten (interface, slot) grid into (name, j, weight, value) items."""
    items = []
    for name in sorted(bandwidths):
        for j, bw in enumerate(bandwidths[name]):
            weight = bw * slot
            if weight > 0:
                items.append((name, j, weight,
                              _cost_at(costs, name, j) * weight))
    return items


def _everything(items: List[Tuple[str, int, float, float]],
                feasible: bool) -> OfflineSolution:
    solution = OfflineSolution(cost=sum(v for _, _, _, v in items),
                               selected=[(n, j) for n, j, _, _ in items],
                               feasible=feasible)
    for name, _, weight, _ in items:
        solution.bytes_per_path[name] = (
            solution.bytes_per_path.get(name, 0.0) + weight)
        solution.total_bytes += weight
    return solution


def solve_offline(bandwidths: Dict[str, Sequence[float]],
                  costs: Dict, slot: float, size: float,
                  resolution: float = None) -> OfflineSolution:
    """Optimal (up to weight discretization) min-cost coverage schedule.

    ``bandwidths`` maps interface name to per-slot bandwidth (bytes/second);
    ``costs`` maps interface name to a unit-data cost — a number, or a
    per-slot sequence for the formulation's time-varying c(i, j) (e.g.
    cellular priced higher at peak hours); ``slot`` is the slot
    duration in seconds and ``size`` the bytes to cover.  ``resolution`` is
    the DP's byte quantum; item weights round *down* to it, so a returned
    schedule always truly covers ``size``.
    """
    _validate(bandwidths, costs, slot, size)
    if resolution is None:
        resolution = max(size / 4000.0, 1.0)
    if resolution <= 0:
        raise ValueError(f"resolution must be positive: {resolution!r}")

    items = _build_items(bandwidths, costs, slot)
    capacity = sum(w for _, _, w, _ in items)
    if capacity < size:
        return _everything(items, feasible=False)

    import numpy as np

    target = int(np.ceil(size / resolution))
    infinity = float("inf")

    # dp[u] = min cost of a subset covering at least u quanta, computed per
    # item prefix; the stack of prefix arrays drives the backtrace.
    dp = np.full(target + 1, infinity)
    dp[0] = 0.0
    prefix_dp = [dp]
    unit_weights = []
    for name, j, weight, value in items:
        units = int(weight / resolution)
        unit_weights.append(units)
        if units <= 0:
            prefix_dp.append(dp)
            continue
        shifted = np.full(target + 1, infinity)
        if units >= target:
            shifted[target] = float(dp.min()) + value
        else:
            shifted[units:target] = dp[:target - units] + value
            shifted[target] = float(dp[target - units:].min()) + value
        dp = np.minimum(dp, shifted)
        prefix_dp.append(dp)

    # Backtrace: walk items last-to-first; an item was taken at coverage u
    # iff skipping it cannot explain the cost at u.
    selected: List[Tuple[str, int]] = []
    u = target
    for idx in range(len(items) - 1, -1, -1):
        if u == 0:
            break
        name, j, weight, value = items[idx]
        units = unit_weights[idx]
        if units <= 0:
            continue
        before, after = prefix_dp[idx], prefix_dp[idx + 1]
        current = after[u]
        if np.isfinite(before[u]) and before[u] <= current + 1e-9:
            continue  # skipping the item explains this state
        # The item was taken; find the source coverage level.
        if u < target:
            source = u - units
        else:
            sources = np.arange(max(0, target - units), target + 1)
            costs_from = before[sources] + value
            source = int(sources[int(np.argmin(costs_from))])
        selected.append((name, j))
        u = max(0, source)

    solution = OfflineSolution(cost=float(prefix_dp[-1][target]),
                               selected=list(reversed(selected)))
    weight_of = {(n, j): w for n, j, w, _ in items}
    for name, j in solution.selected:
        weight = weight_of[(name, j)]
        solution.bytes_per_path[name] = (
            solution.bytes_per_path.get(name, 0.0) + weight)
        solution.total_bytes += weight
    return solution


def solve_greedy(bandwidths: Dict[str, Sequence[float]],
                 costs: Dict, slot: float,
                 size: float) -> OfflineSolution:
    """Cost-sorted greedy: fill from cheap items, topping up with the
    smallest slots of costlier ones.

    This mirrors the paper's N-path approximation: feed data from low-cost
    to high-cost interfaces.  Within one unit-cost tier, slots are added
    smallest first, which minimizes overshoot (not always optimal — the
    DP is).  Costs may be static per interface or per-slot sequences.
    """
    _validate(bandwidths, costs, slot, size)
    items = _build_items(bandwidths, costs, slot)
    by_tier: Dict[float, List[Tuple[float, str, int]]] = {}
    for name, j, weight, value in items:
        by_tier.setdefault(value / weight, []).append((weight, name, j))
    selected: List[Tuple[str, int]] = []
    covered = 0.0
    total_cost = 0.0
    bytes_per_path: Dict[str, float] = {}
    for tier in sorted(by_tier):
        if covered >= size:
            break
        tier_items = sorted(by_tier[tier])
        deficit = size - covered
        tier_capacity = sum(w for w, _, _ in tier_items)
        if tier_capacity <= deficit:
            chosen = tier_items
        else:
            chosen = []
            acc = 0.0
            for item in tier_items:
                if acc >= deficit:
                    break
                chosen.append(item)
                acc += item[0]
            # A single slot just big enough may beat the last small one.
            if chosen:
                need = deficit - (acc - chosen[-1][0])
                chosen_keys = {(n, j) for _, n, j in chosen}
                replacements = [it for it in tier_items
                                if (it[1], it[2]) not in chosen_keys
                                and it[0] >= need]
                if replacements and replacements[0][0] < chosen[-1][0]:
                    chosen[-1] = replacements[0]
        for weight, name, j in chosen:
            selected.append((name, j))
            covered += weight
            total_cost += tier * weight
            bytes_per_path[name] = bytes_per_path.get(name, 0.0) + weight
    return OfflineSolution(cost=total_cost, selected=selected,
                           bytes_per_path=bytes_per_path, total_bytes=covered,
                           feasible=covered >= size)


def fluid_lower_bound(bandwidths: Dict[str, Sequence[float]],
                      costs: Dict, slot: float,
                      size: float) -> float:
    """Cost of the continuous relaxation (fractional slot use).

    Fill capacity in ascending unit-cost order, using the final slot
    fractionally.  Any binary (0-1) solution costs at least this much.
    """
    _validate(bandwidths, costs, slot, size)
    items = sorted((value / weight, weight)
                   for _, _, weight, value
                   in _build_items(bandwidths, costs, slot))
    covered = 0.0
    cost = 0.0
    for unit_cost, weight in items:
        if covered >= size:
            break
        take = min(weight, size - covered)
        covered += take
        cost += unit_cost * take
    return cost
