"""Figures 9 & 10 and Table 5: the 33-location field study (§7.3.3).

At every location in the catalog, stream the Big Buck Bunny video with
FESTIVE and BBA under vanilla MPTCP and MP-DASH (rate- and duration-based
deadlines), then aggregate:

* Figure 9 — CDF of cellular-data savings.  Paper quartiles: 48% / 59% /
  82%, with FESTIVE saving more than BBA.
* Figure 10 — CDF of playback-bitrate reduction.  Paper: no reduction for
  ~83% of experiments; mean reduction of the rest only 2.5%.
* Table 5 — per-location savings for the seven named locations, showing
  savings grow with WiFi throughput.

Sessions are shortened from the paper's 10 minutes unless REPRO_FULL=1;
the aggregate statistics are insensitive to the cut.
"""

import pytest

from conftest import full_runs

from repro.analysis.cdf import fraction_at_most, quartile_summary
from repro.experiments import (BASELINE, DURATION, RATE, SessionConfig,
                               run_schemes)
from repro.experiments.tables import format_table, pct
from repro.workloads import TABLE5_LOCATIONS, field_study_locations

ALGORITHMS = ("festive", "bba")

#: Bound on any single experiment's bitrate reduction: the far tail of
#: Figure 10's CDF.  The paper leaves 82.65% of its experiments with no
#: reduction and the rest at a 2.5% mean; here the worst run is 9.5%
#: (restaurant, FESTIVE, duration-based deadlines).  A cellular path
#: locked out at a zero estimate read 62.7% (bar, FESTIVE, rate-based),
#: which no aggregate bound below caught.
MAX_RUN_BITRATE_REDUCTION = 0.15


def location_config(location, abr, video_seconds):
    wifi, lte = location.paths(duration=2 * video_seconds + 200)
    return SessionConfig(video="big_buck_bunny", abr=abr,
                         wifi_trace=wifi.trace, lte_trace=lte.trace,
                         wifi_mbps=None, lte_mbps=None,
                         wifi_rtt_ms=location.wifi_rtt_ms,
                         lte_rtt_ms=location.lte_rtt_ms,
                         video_duration=video_seconds,
                         tick_interval=0.025)


def run_study():
    video_seconds = 600.0 if full_runs() else 240.0
    records = []
    for location in field_study_locations():
        for abr in ALGORITHMS:
            comparison = run_schemes(
                location_config(location, abr, video_seconds))
            for scheme in (RATE, DURATION):
                records.append({
                    "location": location.name,
                    "scenario": location.scenario,
                    "abr": abr,
                    "scheme": scheme,
                    "cell_saving": comparison.cellular_savings(scheme),
                    "energy_saving": comparison.energy_savings(scheme),
                    "lte_energy_saving":
                        comparison.cellular_energy_savings(scheme),
                    "bitrate_reduction":
                        comparison.bitrate_reduction(scheme),
                    "stalls": comparison.stalls(scheme),
                })
    return records


@pytest.mark.benchmark(group="field")
def test_field_study(benchmark, emit):
    records = benchmark.pedantic(run_study, rounds=1, iterations=1)

    savings = [r["cell_saving"] for r in records]
    q25, q50, q75 = quartile_summary(savings)
    reductions = [r["bitrate_reduction"] for r in records]
    no_reduction = fraction_at_most(reductions, 0.005)
    nonzero = [r for r in reductions if r > 0.005]
    mean_reduction = sum(nonzero) / len(nonzero) if nonzero else 0.0

    lines = [
        "Figure 9 (cellular savings CDF):",
        f"  quartiles 25/50/75: {pct(q25)} / {pct(q50)} / {pct(q75)}"
        f"   (paper: 48% / 59% / 82%)",
        "",
        "Figure 10 (bitrate reduction):",
        f"  experiments with no reduction: {pct(no_reduction)} "
        f"(paper: 82.65%)",
        f"  mean reduction among the rest: {pct(mean_reduction)} "
        f"(paper: 2.5%)",
        "",
    ]

    per_abr = {}
    for r in records:
        per_abr.setdefault(r["abr"], []).append(r["cell_saving"])
    for abr, values in per_abr.items():
        lines.append(f"  median cellular saving, {abr}: "
                     f"{pct(sorted(values)[len(values) // 2])}")

    named = {loc.name for loc in TABLE5_LOCATIONS}
    rows = []
    for r in records:
        if r["location"] in named:
            rows.append([r["location"], r["abr"], r["scheme"],
                         pct(r["cell_saving"]),
                         pct(r["lte_energy_saving"]),
                         pct(r["bitrate_reduction"]), r["stalls"]])
    table = format_table(
        ["location", "abr", "scheme", "cell saved", "LTE-energy saved",
         "bitrate loss", "stalls"],
        rows, title="Table 5 (named locations)")
    emit("field_study", "\n".join(lines) + "\n" + table)

    # Figure 9 shape: strong savings with the paper's ordering.
    assert q50 > 0.45
    assert q75 > 0.70
    assert q25 > 0.25
    festive_median = sorted(per_abr["festive"])[
        len(per_abr["festive"]) // 2]
    bba_median = sorted(per_abr["bba"])[len(per_abr["bba"]) // 2]
    assert festive_median >= bba_median - 0.05

    # Figure 10 shape: bitrate essentially untouched.
    assert no_reduction > 0.6
    assert mean_reduction < 0.08
    worst = max(records, key=lambda r: r["bitrate_reduction"])
    assert worst["bitrate_reduction"] <= MAX_RUN_BITRATE_REDUCTION, (
        f"{worst['location']} {worst['abr']} {worst['scheme']}: bitrate "
        f"reduction {pct(worst['bitrate_reduction'])}")

    # QoE: no stalls anywhere.
    assert all(r["stalls"] == 0 for r in records)

    # Table 5 trend: scenario-3 locations (ample WiFi) save the most.
    by_scenario = {}
    for r in records:
        by_scenario.setdefault(r["scenario"], []).append(r["cell_saving"])
    mean = {s: sum(v) / len(v) for s, v in by_scenario.items()}
    assert mean[3] > mean[1]
    assert mean[3] > 0.9
