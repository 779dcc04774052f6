"""Record the exact-search objectives that the route-search checks expect.

    python3 perfbench/record_exact.py

Runs every pooled layered instance and every bundled exact job once and
writes exact_objectives.json next to this file. Re-run it only when a
change is meant to alter exact-search results, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from rainbownet.cli import main  # noqa: E402


def record() -> dict[str, str]:
    objectives = {}
    origin = os.getcwd()
    with tempfile.TemporaryDirectory(dir=origin) as workdir:
        jobs = workloads.bundled_exact_jobs()
        for width, depth in workloads.LAYERED_SHAPES:
            jobs += [workloads.exact_layered_job(workdir, width, depth, i) for i in range(workloads.FAMILY)]
        os.chdir(workdir)
        try:
            for job in jobs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(job.argv)
                if code != 0:
                    raise SystemExit(f"{job.key}: exit code {code}")
                (row,) = checks.csv_rows(out.getvalue())
                objectives[job.info["exact_key"]] = row["objective"]
        finally:
            os.chdir(origin)
    return objectives


if __name__ == "__main__":
    with open(checks.EXACT_OBJECTIVES_PATH, "w", encoding="utf-8") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
