"""MP-DASH: Adaptive Video Streaming Over Preference-Aware Multipath.

A from-scratch Python reproduction of the CoNEXT 2016 system: the
deadline-aware MP-DASH scheduler, the video adapter, and every substrate —
an MPTCP transport simulator, a DASH stack with four rate-adaptation
algorithms, Holt-Winters throughput prediction, a radio energy model, the
paper's workloads, and the multipath video analysis tool.

Quick start::

    from repro import SessionConfig, run_session

    result = run_session(SessionConfig(abr="festive", mpdash=True,
                                       deadline_mode="rate",
                                       wifi_mbps=3.8, lte_mbps=3.0))
    print(result.metrics.cellular_bytes, result.metrics.radio_energy)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__ = lazy_exports(__name__, {
    "abr": "abr_names make_abr",
    "analysis": "MultipathVideoAnalyzer SessionMetrics",
    "core": ("DeadlineAwareScheduler MpDashAdapter MpDashSocket Preference "
             "prefer_cellular prefer_wifi simulate_online simulate_oracle "
             "solve_offline"),
    "dash": "DashPlayer DashServer Manifest VideoAsset",
    "experiments": ("FileDownloadConfig SchemeComparison SessionConfig "
                    "SessionResult SessionSummary SweepResult expand_grid "
                    "run_file_download run_schemes run_session run_sweep"),
    "mptcp": "MptcpConnection",
    "net": "BandwidthTrace Path Simulator cellular_path mbps wifi_path",
    "workloads": ("MobilityScenario field_study_locations table1_profiles "
                  "video_asset"),
})
