"""Cross-layer analysis: metrics, the video analyzer, CDFs, text figures."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "analyzer": "ChunkView IdleGap MultipathVideoAnalyzer",
    "cdf": "empirical_cdf fraction_at_most percentile quartile_summary",
    "metrics": ("SessionMetrics bitrate_reduction compute_metrics "
                "path_utilization savings"),
    "report": "session_report",
    "visualize": ("NUM_LEVELS ChunkCell chunk_cells chunk_timeline sparkline "
                  "throughput_plot"),
})
