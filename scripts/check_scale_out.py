#!/usr/bin/env python
"""CI smoke check: the 64-512-core scale-out sweep runs end to end.

Runs :func:`repro.experiments.scale_out.scale_out_spec` for one workload at
the ambient ``REPRO_EXPERIMENT_SCALE`` (CI uses 0.1, the repo's smoke
pattern) across all four fabrics at 64-512 cores (the 1024/2048-core
chiplet points have their own gate, ``scripts/check_chiplet.py``), then
asserts:

* every point simulated and produced committed instructions — in
  particular the 256-core concentrated-mesh point, which exercises the
  plugin-built large-grid path (factorised grids, concentrated system map,
  shared-router mesh construction);
* the sweep's records render through the report hook
  (:func:`scale_out_report`), so it cannot silently rot.

Exit code 0 on success; any assertion or simulation error fails the job.
"""

from __future__ import annotations

import sys

#: The smoke grid: every fabric, but only up to 512 cores — large enough
#: to cover each fabric's large-grid construction path, small enough for
#: a CI smoke job.
CORE_COUNTS = (64, 128, 256, 512)
FABRICS = ("mesh", "cmesh", "noc_out", "chiplet")


def main() -> int:
    from repro.experiments.scale_out import run_scale_out, scale_out_report

    workload = "MapReduce-W"
    results = run_scale_out(
        workload_names=(workload,), core_counts=CORE_COUNTS, fabrics=FABRICS
    )
    expected = len(FABRICS) * len(CORE_COUNTS)
    assert len(results) == expected, f"expected {expected} points, got {len(results)}"

    for record in results:
        assert record.result.total_instructions > 0, (
            f"point {record.coords} committed no instructions"
        )
    cmesh_256 = results.filter(topology="cmesh", num_cores=256)
    assert len(cmesh_256) == 1, "256-core concentrated-mesh point missing"
    print(
        "cmesh @ 256 cores: "
        f"throughput {cmesh_256[0].result.throughput_ipc:.3f} IPC, "
        f"{cmesh_256[0].result.messages_delivered} messages"
    )

    report = scale_out_report(results)
    assert "cmesh" in report.measured_table
    assert "chiplet" in report.measured_table
    assert "512 cores" in report.measured_table
    print(report.measured_table)
    print(f"scale-out ordering check: {report.comparison.status}")
    print("scale-out smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
