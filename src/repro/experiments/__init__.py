"""Experiment harness: configs, runners, sweeps, comparisons, tables."""

from .compare import SchemeComparison, run_schemes
from .configs import (BASELINE, DURATION, FileDownloadConfig, RATE, SCHEMES,
                      SessionConfig)
from .fleet import (FleetConfig, FleetResult, fleet_key, fold_session,
                    run_fleet, session_config)
from .runner import (FileDownloadResult, SessionResult, run_file_download,
                     run_session)
from .sweep import (ResultCache, RunFailure, SessionSummary, SweepResult,
                    SweepRun, config_key, expand_grid, run_sweep,
                    summarize_session)
from .tables import (fleet_table, format_table, joules, mb, mbps_str, pct,
                     sweep_table)

__all__ = [
    "BASELINE", "DURATION", "FileDownloadConfig",
    "FileDownloadResult", "FleetConfig", "FleetResult", "RATE",
    "ResultCache", "RunFailure", "SCHEMES",
    "SchemeComparison", "SessionConfig", "SessionResult", "SessionSummary",
    "SweepResult", "SweepRun", "config_key", "expand_grid", "fleet_key",
    "fleet_table", "fold_session", "format_table",
    "joules", "mb", "mbps_str", "pct", "run_file_download", "run_fleet",
    "run_schemes", "run_session", "run_sweep", "session_config",
    "summarize_session", "sweep_table",
]
