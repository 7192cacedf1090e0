"""How closely pinkey's request times follow the probe's times.

    python3 perfbench/run.py --tracking

The benchmark scales each request's wall time by the probe timed next to
it (see ``worker``). That is only fair if the host slows a request and the
probe alike. For each workload this sends a fixed sample of its seed-1
requests over and over for SECONDS, a probe after each, and reports:

* ``slope``: of log request time on log probe time (the mean of the probes
  before and after), each request's own mean removed. Probe noise biases
  it towards 0, so ``corrected`` divides by the share of the probe's
  variance that is not noise (estimated from before/after differences).
  Near 1 means request times follow the probe.
* ``sd``: the standard deviation of a request's log time across its
  repeats, unscaled and scaled, averaged over the sample.

Runs in a child process with pinkey on the path.
"""

from __future__ import annotations

import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = 30
SAMPLE = {"analyze": 24, "span": 24, "wide": 24, "desk": 60}


def child() -> int:
    import worker
    import workloads

    work = Path(sys.argv[2])
    for workload in workloads.WORKLOADS:
        pool = workloads.build(workload, 1)
        paths = pool.write(work / workload)
        requests = pool.requests[:SAMPLE[workload]]
        seen: dict[int, list[tuple[float, float, float]]] = {}
        before = worker.probe()
        end = time.perf_counter() + SECONDS
        while time.perf_counter() < end:
            for key, request in enumerate(requests):
                elapsed = worker.call(request.argv(paths[request.model]))[2]
                after = worker.probe()
                seen.setdefault(key, []).append(
                    (math.log(elapsed), math.log((before + after) / 2),
                     math.log(before / after)))
                before = after
        xs, ys, diffs, raw, scaled = [], [], [], [], []
        for rows in seen.values():
            mean_y = statistics.fmean(r[0] for r in rows)
            mean_x = statistics.fmean(r[1] for r in rows)
            xs += [r[1] - mean_x for r in rows]
            ys += [r[0] - mean_y for r in rows]
            diffs += [r[2] for r in rows]
            raw.append(statistics.pstdev(r[0] for r in rows))
            scaled.append(statistics.pstdev(r[0] - r[1] for r in rows))
        var_x = statistics.fmean(x * x for x in xs)
        slope = statistics.fmean(x * y for x, y in zip(xs, ys)) / var_x
        # the mean of two probes carries a quarter of their difference's
        # variance as noise, if the two are independent
        signal = 1 - statistics.pvariance(diffs) / 4 / var_x
        print(f"{workload:<8} repeats={len(xs)}  slope={slope:.2f}  "
              f"corrected={slope / signal:.2f}  sd unscaled="
              f"{statistics.fmean(raw):.3f}  scaled={statistics.fmean(scaled):.3f}",
              flush=True)
    return 0


def main(checkout) -> int:
    work = checkout.work / "tracking"
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "tracking.py"), "child", str(work)],
            env=checkout.env, cwd=checkout.root, timeout=600)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(child())
