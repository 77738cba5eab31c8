"""Experiment harness: configs, runners, sweeps, comparisons, tables."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "compare": "SchemeComparison run_schemes",
    "configs": ("BASELINE DURATION RATE SCHEMES FileDownloadConfig "
                "SessionConfig config_key"),
    "fleet": ("FleetConfig FleetResult fleet_key fold_session run_fleet "
              "session_config"),
    "runner": "FileDownloadResult SessionResult run_file_download run_session",
    "sweep": ("ResultCache RunFailure SessionSummary SweepResult SweepRun "
              "expand_grid run_sweep summarize_session"),
    "tables": "fleet_table format_table joules mb mbps_str pct sweep_table",
})
