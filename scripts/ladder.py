#!/usr/bin/env python3
"""Time a fixed, seeded ladder of instances and write BENCH_<label>.json.

Every instance is rebuilt from this file alone, so two checkouts run the
same ladder.  The ``spanning/`` rows are spanning-tree packings
(``A = M``):

* ``found9``: a random 9-terminal graph, pair weights below times 37
  (k = 490 trees over 3,922 edges, near the spanning work cap);
* ``K4x300`` and ``K6x210``: complete graphs with 300 and 210 copies of
  every pair;
* ``random_m9`` .. ``random_m12``: integer-random graphs, one
  ``randint(0, 6)`` per pair (i < j, row-major) from ``random.Random(m)``.

The ``capacity/`` rows ``dense_m9`` .. ``dense_m12`` solve the capacity
LP at ``A = M`` on dense-random models: pair weight ``randint(0, 6)`` over
``randint(1, 3)``, drawn in that order per pair (i < j, row-major) from
``random.Random(m)``.

The ``protocol/`` rows ``path_30k``, ``path_100k`` and ``path_300k`` run
the key protocol on the three-terminal path with half the edges on pair
(1, 2) and half on (2, 3), target {1, 3}: one group of 2-edge paths, one
broadcast per copy.  The packing and the edge bits (seed 0) are made once;
each timed call gets a fresh equal graph, so it builds the edge order as a
CLI request does, then runs ``run_protocol`` and ``audit``.

The ``steiner/`` rows run exact ``steiner_packing``:

* ``set_s1``: the Steiner set, 40 graphs drawn from ``random.Random(7)``:
  per graph m = ``randint(5, 7)``, then ``randint(0, 3)`` edges per pair
  (i < j, row-major), then k = ``randint(3, m - 1)`` and A =
  ``sample(range(1, m + 1), k)``; a graph with more than 40 edges is
  skipped, and the rest are packed with ``edge_cap=40``;
* ``path_m20``: the 20-terminal unit path with A = {1, 2, 3}.

Each row reports the best of ``--repeat`` wall-clock times of one
``spanning_packing``, ``solve_capacity``, protocol-plus-audit call or
pass of exact Steiner packings, with what it returned: tree and group
counts, the capacity and the LP's column count, the key and transcript
bit counts, or the graph count and total trees.  The ladder is a record, not
a gate.  ``--compare BASE.json HEAD.json`` reads two such files instead
and prints each row's best times and the HEAD/BASE ratio (below 1 where
HEAD is faster); a row only one file has gets ``-`` for the other.

    PYTHONPATH=src python scripts/ladder.py --label mybranch
    PYTHONPATH=src python scripts/ladder.py --compare BENCH_main.json BENCH_mybranch.json
"""

import argparse
import itertools
import json
import platform
import random
import subprocess
import time
from fractions import Fraction
from pathlib import Path

from pinkey import (Multigraph, PinModel, TerminalSet, audit, draw_edge_keys,
                    format_rational, run_protocol, solve_capacity, spanning_packing,
                    steiner_packing, subset_family)

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


def dense_random(m: int) -> PinModel:
    rng = random.Random(m)
    weights = {}
    for pair in itertools.combinations(range(1, m + 1), 2):
        numerator = rng.randint(0, 6)
        weights[pair] = Fraction(numerator, rng.randint(1, 3))
    return PinModel.from_weights(m, weights)


def steiner_set() -> list[tuple[Multigraph, TerminalSet]]:
    rng = random.Random(7)
    cases = []
    while len(cases) < 40:
        m = rng.randint(5, 7)
        graph = weighted(m, [rng.randint(0, 3) for _ in range(m * (m - 1) // 2)], 1)
        target = TerminalSet.of(*rng.sample(range(1, m + 1), rng.randint(3, m - 1)))
        if graph.total_edges() <= 40:
            cases.append((graph, target))
    return cases


def steiner_rows() -> list[tuple[str, list[tuple[Multigraph, TerminalSet]]]]:
    path = Multigraph(20, {(i, i + 1): 1 for i in range(1, 20)})
    return [("set_s1", steiner_set()), ("path_m20", [(path, TerminalSet.of(1, 2, 3))])]


def git_revision() -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        revision = git("rev-parse", "HEAD")
        return revision + ("+dirty" if git("status", "--porcelain", "--", "src") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def timed(call, repeat: int):
    """The last result of ``repeat`` calls, with the best and all times."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return result, {"best_s": min(times), "times_s": times}


def spanning_row(name: str, graph: Multigraph, repeat: int) -> dict:
    packing, timing = timed(lambda: spanning_packing(graph), repeat)
    return {
        "row": f"spanning/{name}",
        "terminals": graph.m,
        "edges": graph.total_edges(),
        "trees": packing.count,
        "groups": len(packing.groups),
        **timing,
    }


def capacity_row(m: int, repeat: int) -> dict:
    model = dense_random(m)
    target = TerminalSet.full(m)
    result, timing = timed(lambda: solve_capacity(model, target), repeat)
    return {
        "row": f"capacity/dense_m{m}",
        "terminals": m,
        "columns": len(subset_family(m, target).subsets),
        "value": format_rational(result.value),
        **timing,
    }


def protocol_row(edges: int, repeat: int) -> dict:
    pairs = {(1, 2): edges // 2, (2, 3): edges - edges // 2}
    graph = Multigraph(3, pairs)
    target = TerminalSet.of(1, 3)
    packing = steiner_packing(graph, target)
    keys = draw_edge_keys(graph, 0)

    def protocol_and_audit():
        run = run_protocol(Multigraph(3, pairs), packing, keys, target)
        return run, audit(run)

    (run, report), timing = timed(protocol_and_audit, repeat)
    return {
        "row": f"protocol/path_{edges // 1000}k",
        "terminals": 3,
        "edges": edges,
        "key_bits": len(run.key_bits),
        "transcript_bits": len(run.transcript_bits),
        "audit_passed": report.passed,
        **timing,
    }


def steiner_row(name: str, cases, repeat: int) -> dict:
    packings, timing = timed(
        lambda: [steiner_packing(graph, target, edge_cap=40) for graph, target in cases],
        repeat)
    return {
        "row": f"steiner/{name}",
        "graphs": len(cases),
        "trees": sum(packing.count for packing in packings),
        **timing,
    }


def compare(base_path: Path, head_path: Path) -> list[str]:
    """Lines of per-row best times of two ladder files and HEAD/BASE, rows
    in BASE's order and then HEAD's own."""
    base, head = (json.loads(path.read_text(encoding="utf-8"))
                  for path in (base_path, head_path))
    best = [{row["row"]: row["best_s"] for row in report["rows"]}
            for report in (base, head)]
    names = list(best[0]) + [name for name in best[1] if name not in best[0]]
    lines = [f"BASE {base['label']} ({base['revision']})",
             f"HEAD {head['label']} ({head['revision']})",
             f"{'row':<24} {'BASE s':>9} {'HEAD s':>9} {'HEAD/BASE':>9}"]
    for name in names:
        times = [side.get(name) for side in best]
        shown = ["-" if t is None else f"{t:.4f}" for t in times]
        ratio = "-" if None in times or not times[0] else f"{times[1] / times[0]:.3f}"
        lines.append(f"{name:<24} {shown[0]:>9} {shown[1]:>9} {ratio:>9}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", help="names BENCH_<label>.json")
    parser.add_argument("--repeat", type=int, default=5, help="runs per row (best kept)")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "HEAD"),
                        help="compare two BENCH_*.json files instead of timing")
    args = parser.parse_args()
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return
    if args.label is None:
        parser.error("--label is required unless --compare is given")
    if args.repeat < 1:
        parser.error("--repeat must be positive")
    rows = []
    for name, graph in spanning_rows():
        row = spanning_row(name, graph, args.repeat)
        rows.append(row)
        print(f"{row['row']:<20} |E| = {row['edges']:>5}  trees {row['trees']:>4}  "
              f"groups {row['groups']:>4}  best {row['best_s']:.4f} s")
    for m in range(9, 13):
        row = capacity_row(m, args.repeat)
        rows.append(row)
        print(f"{row['row']:<20} columns {row['columns']:>4}  "
              f"C = {row['value']:<8} best {row['best_s']:.4f} s")
    for edges in (30_000, 100_000, 300_000):
        row = protocol_row(edges, args.repeat)
        rows.append(row)
        print(f"{row['row']:<20} |E| = {row['edges']:>6}  |K| = {row['key_bits']:>6}  "
              f"|F| = {row['transcript_bits']:>6}  best {row['best_s']:.4f} s")
    for name, cases in steiner_rows():
        row = steiner_row(name, cases, args.repeat)
        rows.append(row)
        print(f"{row['row']:<20} graphs {row['graphs']:>3}  trees {row['trees']:>4}  "
              f"best {row['best_s']:.4f} s")
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
