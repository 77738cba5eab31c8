"""Cross-layer analysis: metrics, the video analyzer, CDFs, text figures."""

from .analyzer import ChunkView, IdleGap, MultipathVideoAnalyzer
from .cdf import (empirical_cdf, fraction_at_most, percentile,
                  quartile_summary)
from .report import session_report
from .metrics import (SessionMetrics, bitrate_reduction, compute_metrics,
                      path_utilization, savings)
from .visualize import (NUM_LEVELS, ChunkCell, chunk_cells, chunk_timeline,
                        sparkline, throughput_plot)

__all__ = [
    "NUM_LEVELS",
    "ChunkCell", "ChunkView", "IdleGap", "MultipathVideoAnalyzer",
    "SessionMetrics", "bitrate_reduction", "chunk_cells", "chunk_timeline",
    "compute_metrics", "empirical_cdf", "fraction_at_most",
    "path_utilization", "percentile", "quartile_summary", "savings",
    "session_report", "sparkline", "throughput_plot",
]
