#!/usr/bin/env python3
"""Time a fixed, seeded ladder of instances and write BENCH_<label>.json.

Every instance is rebuilt from this file alone, so two checkouts run the
same ladder.  The rows so far are spanning-tree packings (``A = M``):

* ``found9``: a random 9-terminal graph, pair weights below times 37
  (k = 490 trees over 3,922 edges, near the spanning work cap);
* ``K4x300`` and ``K6x210``: complete graphs with 300 and 210 copies of
  every pair;
* ``random_m9`` .. ``random_m12``: integer-random graphs, one
  ``randint(0, 6)`` per pair (i < j, row-major) from ``random.Random(m)``.

Each row reports the best of ``--repeat`` wall-clock times of one
``spanning_packing`` call, with the tree and group counts it returned.
The ladder is a record, not a gate.

    PYTHONPATH=src python scripts/ladder.py --label mybranch
"""

import argparse
import itertools
import json
import platform
import random
import subprocess
import time
from pathlib import Path

from pinkey import Multigraph, spanning_packing

ROOT = Path(__file__).resolve().parent.parent
FOUND9_WEIGHTS = (1, 2, 0, 2, 5, 4, 1, 4, 3, 6, 0, 1, 0, 3, 1, 0, 5, 1, 3, 5, 4, 5,
                  3, 4, 6, 1, 5, 6, 5, 4, 3, 1, 4, 5, 0, 3)


def weighted(m: int, weights, copies: int) -> Multigraph:
    pairs = itertools.combinations(range(1, m + 1), 2)
    return Multigraph(m, {pair: w * copies for pair, w in zip(pairs, weights) if w})


def integer_random(m: int) -> Multigraph:
    rng = random.Random(m)
    return weighted(m, [rng.randint(0, 6) for _ in range(m * (m - 1) // 2)], 1)


def spanning_rows() -> list[tuple[str, Multigraph]]:
    rows = [
        ("found9", weighted(9, FOUND9_WEIGHTS, 37)),
        ("K4x300", weighted(4, [1] * 6, 300)),
        ("K6x210", weighted(6, [1] * 15, 210)),
    ]
    return rows + [(f"random_m{m}", integer_random(m)) for m in range(9, 13)]


def git_revision() -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        revision = git("rev-parse", "HEAD")
        return revision + ("+dirty" if git("status", "--porcelain", "--", "src") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_row(name: str, graph: Multigraph, repeat: int) -> dict:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        packing = spanning_packing(graph)
        times.append(time.perf_counter() - start)
    return {
        "row": f"spanning/{name}",
        "terminals": graph.m,
        "edges": graph.total_edges(),
        "trees": packing.count,
        "groups": len(packing.groups),
        "best_s": min(times),
        "times_s": times,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--repeat", type=int, default=5, help="runs per row (best kept)")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be positive")
    rows = []
    for name, graph in spanning_rows():
        row = run_row(name, graph, args.repeat)
        rows.append(row)
        print(f"{row['row']:<20} |E| = {row['edges']:>5}  trees {row['trees']:>4}  "
              f"groups {row['groups']:>4}  best {row['best_s']:.4f} s")
    report = {
        "label": args.label,
        "revision": git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": args.repeat,
        "rows": rows,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
