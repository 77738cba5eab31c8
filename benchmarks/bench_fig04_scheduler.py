"""Figure 4: the MP-DASH scheduler on a single 5 MB file download.

§7.2.1's workload: WiFi 3.8 Mbps, LTE 3.0 Mbps (Dummynet-pinned), 5 MB
file.  WiFi alone needs ~10.5 s, MPTCP ~6 s; deadlines of 8, 9, and 10 s
are evaluated against vanilla MPTCP.  The paper repeats the grid under the
minRTT and round-robin packet schedulers; in the fluid transport model
every enabled subflow runs at its full potential, so the packet scheduler
cannot change the outcome and one grid stands for both.  The paper reports
large LTE-byte and radio-energy savings that grow with the deadline (68%
data / 44% energy at D=10 s), and an α=0.8 sensitivity point (28% / 15%).
"""

import pytest

from repro.experiments import FileDownloadConfig, run_file_download
from repro.experiments.tables import format_table, pct
from repro.net.units import megabytes

SIZE = megabytes(5)


def run_grid():
    results = {"baseline": run_file_download(FileDownloadConfig(
        size=SIZE, deadline=10.0, mpdash=False, wifi_mbps=3.8,
        lte_mbps=3.0))}
    for deadline in (8.0, 9.0, 10.0):
        results[deadline] = run_file_download(FileDownloadConfig(
            size=SIZE, deadline=deadline, wifi_mbps=3.8, lte_mbps=3.0))
    # The alpha sensitivity point at D=10.
    results["alpha0.8"] = run_file_download(FileDownloadConfig(
        size=SIZE, deadline=10.0, alpha=0.8, wifi_mbps=3.8, lte_mbps=3.0))
    return results


@pytest.mark.benchmark(group="fig04")
def test_fig04_file_download_grid(benchmark, emit):
    results = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    rows = []
    for case, result in results.items():
        rows.append([str(case),
                     result.cellular_bytes / 1e6,
                     result.radio_energy,
                     result.duration,
                     "MISS" if result.missed_deadline else "ok"])
    table = format_table(
        ["deadline", "LTE MB", "energy J", "finish s", "met?"],
        rows, title="Figure 4: 5MB download, WiFi 3.8 / LTE 3.0 Mbps")

    base = results["baseline"]
    d10 = results[10.0]
    alpha = results["alpha0.8"]
    data_saving = 1 - d10.cellular_bytes / base.cellular_bytes
    energy_saving = 1 - d10.radio_energy / base.radio_energy
    alpha_saving = 1 - alpha.cellular_bytes / base.cellular_bytes
    summary = (f"\nD=10s savings vs baseline: data {pct(data_saving)} "
               f"(paper 68%), energy {pct(energy_saving)} (paper 44%)\n"
               f"alpha=0.8 at D=10s: data saving {pct(alpha_saving)} "
               f"(paper 28%)")
    emit("fig04_scheduler", table + summary)

    # Shape assertions.
    previous = None
    for deadline in (8.0, 9.0, 10.0):
        result = results[deadline]
        assert not result.missed_deadline
        assert result.cellular_bytes < base.cellular_bytes
        if previous is not None:
            assert result.cellular_bytes <= previous.cellular_bytes + 1e4
        previous = result
    assert data_saving > 0.5
    assert energy_saving > 0.15
    # Smaller alpha is more conservative: more cellular than alpha=1 but
    # still a clear saving over the baseline.
    assert alpha.cellular_bytes >= d10.cellular_bytes
    assert alpha_saving > 0.15
