"""A fixed pure-Python reference loop that gauges the machine's speed.

On a shared machine the speed of one core drifts by more than half
within seconds as other tenants come and go, and it drifts in CPU time
as much as in wall time.  The benchmark therefore runs :func:`measure`
between timed items and scales each item's times by ``NOMINAL_S`` over
the gauges on either side of it: every reported time is the time the
item would have taken on a machine that runs the reference in exactly
:data:`NOMINAL_S`.  A gauge lasts a fixed share of the item before it,
so a long item, which sees more of the drift, gets a longer look at
the machine's speed.  The loop does what the simulator does most —
attribute access on slotted objects, float arithmetic, dict updates,
small calls — so a slower core slows both by about the same factor.
Nothing here calls the program, so a change to the program moves the
scaled times by its own full effect.
"""

from __future__ import annotations

from time import perf_counter

#: Seconds the reference takes on the nominal machine; the scale of
#: every reported time.
NOMINAL_S = 0.010
#: Loop passes :data:`NOMINAL_S` stands for, and the fewest a gauge runs.
PASSES = 6


class _Particle:
    __slots__ = ("t", "rate", "level")

    def __init__(self, t: float, rate: float):
        self.t = t
        self.rate = rate
        self.level = 0.0


def _step(particle: _Particle, k: int) -> float:
    particle.level += particle.rate * 0.001 + \
        (particle.t - k * 1e-4) ** 2 * 1e-9
    if particle.level > 1.0:
        particle.level -= 1.0
    return particle.level


def _pass() -> float:
    particles = [_Particle(i * 0.5, 1.0 + i % 7) for i in range(64)]
    buckets: dict = {}
    total = 0.0
    for k in range(3000):
        level = _step(particles[k & 63], k)
        key = k % 97
        buckets[key] = buckets.get(key, 0.0) + level
        total += min(level, 0.5)
    return total + len(buckets)


def measure(at_least: float = 0.0) -> float:
    """Wall seconds :data:`PASSES` passes of the reference loop take,
    averaged over as many passes as fill ``at_least`` seconds."""
    passes = 0
    started = perf_counter()
    while True:
        _pass()
        passes += 1
        elapsed = perf_counter() - started
        if passes >= PASSES and elapsed >= at_least:
            return elapsed * PASSES / passes
