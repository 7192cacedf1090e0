"""Paired comparison of two checkouts with identical benchmark code.

    python3 perfbench/run.py --compare BASE HEAD [--workload W]

BASE and HEAD are checkout roots holding ``src/pinkey``; both run with this
checkout's benchmark and settings. There are ten pairs; pair k uses seed
``--seed + k`` on both
sides and alternates which side runs first. Each workload gets its own
rows: per end-to-end metric, each side's median and quartiles, the pairs
HEAD won, and a verdict:

* ``better``: HEAD wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than BASE's quartile spread;
* ``unresolved``: BASE's own spread exceeds the metric's bound, and HEAD
  is not better than BASE on every run;
* ``REGRESSED``: HEAD's median is worse than BASE's by more than the bound;
* ``within bound`` otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from workloads import WORKLOADS

PAIRS = 10


def _bounds() -> dict:
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["bound"], m["better"], m["unit"])
            for m in spec["end_to_end"]}


def judge(base: list[float], head: list[float], bound: float,
          better: str) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    mid_b, mid_h = statistics.median(base), statistics.median(head)
    q1, _, q3 = statistics.quantiles(base, n=4)
    if (wins >= 0.9 * len(base)
            and sign * (mid_h - mid_b) > q3 - q1):
        return "better", wins
    if (q3 - q1) / mid_b > bound:
        every = (min(head) > max(base) if sign > 0 else max(head) < min(base))
        return ("better (every run)" if every else "unresolved"), wins
    if sign * (mid_b - mid_h) / mid_b > bound:
        return "REGRESSED", wins
    return "within bound", wins


def _describe(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(args, sides) -> int:
    base, head = sides
    for side in sides:
        side.build()
    names = WORKLOADS if args.workload in (None, "all") else (args.workload,)
    bounds = _bounds()
    runs = {w: {"base": [], "head": []} for w in names}
    failures = 0
    for k in range(PAIRS):
        order = [("base", base), ("head", head)]
        if k % 2:
            order.reverse()
        for workload in names:
            for label, side in order:
                result = side.run(workload, args.seed + k, args.seconds, False)
                failures += result["failed"]
                runs[workload][label].append(result["metrics"])
    summary = {}
    regressed = False
    for workload in names:
        print(f"{workload}:  metric  base median [q1, q3]  head median "
              "[q1, q3]  head wins  verdict")
        for name, (bound, better, unit) in bounds.items():
            b = [m[name] for m in runs[workload]["base"]]
            h = [m[name] for m in runs[workload]["head"]]
            outcome, wins = judge(b, h, bound, better)
            regressed |= outcome == "REGRESSED"
            summary[f"{workload}.{name}"] = outcome
            print(f"  {name} ({unit}, {better} is better, bound {bound}):  "
                  f"{_describe(b)}  {_describe(h)}  {wins}/{len(b)}  {outcome}")
    print(json.dumps({"failed": failures, "verdicts": summary}))
    return 1 if failures or regressed else 0
