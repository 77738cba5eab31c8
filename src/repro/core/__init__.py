"""MP-DASH core: deadline-aware scheduler, offline optimum, video adapter."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "adapter": "MpDashAdapter",
    "deadlines": ("DEADLINE_MODES DURATION_BASED RATE_BASED compute_deadline "
                  "duration_based_deadline extend_deadline "
                  "rate_based_deadline"),
    "offline": "OfflineSolution fluid_lower_bound solve_greedy solve_offline",
    "policy": "Preference prefer_cellular prefer_wifi",
    "scheduler": "DeadlineAwareScheduler",
    "socket_api": "MpDashSocket",
    "tracesim": "TraceSimResult simulate_online simulate_oracle",
})
