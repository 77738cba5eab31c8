"""User-specified multipath preference policies.

The preference is quantified by a unit-data cost per path (§4): "the cost
could be data usage, energy consumption, or a combination of both".  Only
the *ordering* matters to the online scheduler — data is fed from low-cost
to high-cost interfaces — so a policy is an ordered ranking of interface
names, with optional explicit costs for the generalized N-path variant.

The two policies the paper's prototype ships — prefer WiFi over cellular and
its symmetric opposite — are provided as constants.

:func:`enabled_prefix` is Algorithm 1's decision itself, the one rule the
online scheduler, the slot model and the packet model all run.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..net.link import CELLULAR, WIFI, Path


def enabled_prefix(rates: Sequence[float], remaining: float,
                   time_left: float) -> Tuple[bool, ...]:
    """Which cost-ordered paths Algorithm 1 runs (§4, N-path form).

    ``rates`` are the paths' predicted throughputs, cheapest first.  The
    cheapest path is always on; each costlier path is on until the combined
    rate of the paths before it can deliver the ``remaining`` bytes in
    ``time_left`` seconds (a negative time left counts as none), so the
    costliest path's own rate never matters.  With two paths this is
    Algorithm 1 verbatim: the costly path runs iff
    ``time_left · R_preferred < remaining``.
    """
    budget = max(time_left, 0.0)
    capacity = 0.0
    for count, rate in enumerate(rates, 1):
        capacity += rate
        if budget * capacity >= remaining:
            return (True,) * count + (False,) * (len(rates) - count)
    return (True,) * len(rates)


def require_positive(**values: float) -> None:
    """Reject an Algorithm 1 input that is not a positive, finite number.

    Checked once where a download is set up, never per decision: a NaN
    compares false everywhere, so it would otherwise slip past every guard
    and silently switch scheduling off.
    """
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite: {value!r}")


class Preference:
    """An ordered interface preference (cheapest first)."""

    def __init__(self, order: Sequence[str],
                 costs: Optional[Dict[str, float]] = None):
        if not order:
            raise ValueError("preference order cannot be empty")
        if len(set(order)) != len(order):
            raise ValueError(f"duplicate interfaces in preference: {order}")
        self.order: List[str] = list(order)
        if costs is None:
            # Default: rank index as cost, so ordering is preserved.
            costs = {name: float(i) for i, name in enumerate(order)}
        missing = set(order) - set(costs)
        if missing:
            raise ValueError(f"costs missing for interfaces: {sorted(missing)}")
        sorted_by_cost = sorted(order, key=lambda n: (costs[n], order.index(n)))
        if sorted_by_cost != self.order:
            raise ValueError("costs must be non-decreasing in preference order")
        self.costs = dict(costs)

    @property
    def primary(self) -> str:
        """The preferred interface — set as MPTCP's primary interface."""
        return self.order[0]

    def secondary_names(self) -> List[str]:
        """Everything except the primary (the on/off-managed paths)."""
        return self.order[1:]

    def cost_of(self, name: str) -> float:
        try:
            return self.costs[name]
        except KeyError:
            raise KeyError(f"interface {name!r} not in preference "
                           f"{self.order}") from None

    def rank(self, name: str) -> int:
        try:
            return self.order.index(name)
        except ValueError:
            raise KeyError(f"interface {name!r} not in preference "
                           f"{self.order}") from None

    def apply_costs(self, paths: Sequence[Path]) -> None:
        """Stamp this policy's costs onto path objects."""
        for path in paths:
            path.cost = self.cost_of(path.name)

    def sorted_paths(self, paths: Sequence[Path]) -> List[Path]:
        """Paths ordered cheapest-first according to this preference."""
        return sorted(paths, key=lambda p: self.rank(p.name))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Preference):
            return NotImplemented
        return self.order == other.order and self.costs == other.costs

    def __repr__(self) -> str:
        return f"<Preference {' < '.join(self.order)}>"


def prefer_wifi() -> Preference:
    """WiFi preferred over cellular (the common case: metered LTE)."""
    return Preference([WIFI, CELLULAR], {WIFI: 0.0, CELLULAR: 1.0})


def prefer_cellular() -> Preference:
    """Cellular preferred over WiFi (e.g. while moving between APs)."""
    return Preference([CELLULAR, WIFI], {CELLULAR: 0.0, WIFI: 1.0})
