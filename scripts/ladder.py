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
  ``randint(0, 6)`` per pair (i < j, row-major) from ``random.Random(m)``;
* ``bridge_K6x20``: two K6 with 20 copies of every pair, on 1..6 and
  7..12, joined by the one edge (6, 7): 54 trees by the degree and edge
  count, 1 in fact, so the packing falls back to the partition count;
* ``dense_m20``: the integer-random graph at m = 20, past the partition
  search's terminal cap.

The ``capacity/`` rows solve the capacity LP on dense-random models: pair
weight ``randint(0, 6)`` over ``randint(1, 3)``, drawn in that order per
pair (i < j, row-major) from ``random.Random(m)``.  They cover the LP's
three target regimes at m = 9 .. 12: ``dense_m9`` .. ``dense_m12`` at
``A = M``, ``dense_m9_pair`` .. at A = {1, 2}, and ``dense_m9_half`` .. at
A = {1, .., ceil(m/2)}.  ``unit_K12_pair`` and ``unit_K12_half`` solve it on
the unit complete graph K12 (every weight 1) at A = {1, 2} (C = 11) and
A = {1, .., 6}: a tie-heavy LP whose optimum is shared by many vertices,
so the solver reruns Bland's rule and the vertex check reads a degenerate
basis.  ``capacity/floor_m6`` is the fixed per-request
floor of small LPs: ``solve_capacity`` plus ``best_partition``, as the
``capacity`` command runs them, over 34 models with m = 6, each drawn
from ``random.Random(6)`` with three targets in turn (|A| = 2, 3, 6):
per pair (i < j, row-major) a quarter are zero and the rest weigh
``randint(1, 8)`` over ``randint(1, 4)``, then A = ``sample(range(1, 7),
|A|)``.  The ``bound/`` rows ``dense_m9`` .. ``dense_m12``
compute ``upper_bound`` on the same models at ``A = M``.

The ``protocol/`` rows ``path_30k``, ``path_100k`` and ``path_300k`` run
the key protocol on the three-terminal path with half the edges on pair
(1, 2) and half on (2, 3), target {1, 3}: one group of 2-edge paths, one
broadcast per copy.  The packing's groups and the edge bits (seed 0) are
made once, and so is one fresh ``TreePacking`` of those groups on a fresh
equal graph per timed call, untimed, as a CLI request builds its packing.
Each timed call runs ``run_protocol`` and ``audit`` on its own packing,
so no call reads what an earlier call cached.

The ``steiner/`` rows run exact ``steiner_packing``:

* ``set_s1``: the Steiner set, 40 graphs drawn from ``random.Random(7)``:
  per graph m = ``randint(5, 7)``, then ``randint(0, 3)`` edges per pair
  (i < j, row-major), then k = ``randint(3, m - 1)`` and A =
  ``sample(range(1, m + 1), k)``; a graph with more than 40 edges is
  skipped, and the rest are packed with ``STEINER_EXACT_EDGE_CAP`` set to 40;
* ``set_s2``: the Steiner set at scale 2, its first 20 graphs with every
  multiplicity doubled, packed with ``STEINER_EXACT_EDGE_CAP`` set to 80;
* ``path_m20``: the 20-terminal unit path with A = {1, 2, 3};
* ``grid_corners``: the 4x4 grid, vertices 1..16 row by row and 24 unit
  edges, with A = its corners {1, 4, 13, 16}.

The two set rows raise the module constant around their calls and restore
it after.  ``--compare`` against a root whose ``steiner_packing`` still
takes the cap as an ``edge_cap`` keyword cannot time them: there the
constant is read once, into that default, so their graphs over 24 edges
hit the size limit.

The ``cli/load_floor`` row is the front end every CLI request runs:
``load_model`` and then ``realize_multigraph`` at the base scale, over 120
model files written to a temporary directory.  They are drawn from
``random.Random(5)``, 30 times over m = 3, 4, 5, 6: ``randint(m + 1,
min(16, 3 * pairs))`` half-units, each on a ``choice`` of the pairs
(i < j, row-major) that hold fewer than 3, so every weight is in
{0, 1/2, 1, 3/2} and at most 16 edges are realized; zero pairs are left
out of the file, as in the benchmark's ``desk`` models.  The
``cli/argv_floor`` row is the argument step of ``pinkey.cli.main`` (the
fast path, then argparse if that returns None) over 600 command lines:
each of the five commands with its full flag set (``--set 1,2``,
``--scale 2``, ``--mode exact``, ``--seed 7``, ``--format structured``,
as the command takes them) on each of the 120 ``cli/load_floor`` paths.
It reports ``argvs`` and ``fast``, how many took the fast path; a
checkout without the fast path times argparse alone and reports 0.

A row whose call raises ``SizeLimitError`` reports the message as
``limit`` and no times.  Each row reports the best of ``--repeat``
wall-clock times of one
``spanning_packing``, ``solve_capacity``, protocol-plus-audit call or
pass of LPs, exact Steiner packings, model loads or argument steps, with
what it returned: tree and group counts, the capacity and the LP's
column count, each target size, capacity and bound of the floor set,
the key and transcript bit counts, the graph count and total trees, the
model count and total edges, or the command-line counts.  The ladder is
a record, not a gate.
``--compare BASE.json HEAD.json`` reads two such files instead and
prints each row's best times and the HEAD/BASE ratio (below 1 where HEAD
is faster); a row only one file has gets ``-`` for the other.  Given two
checkout roots, ``--compare`` times both in ``--repeat`` rounds of fresh
interpreters, each timing every row ``--repeat`` times, and adds each row's
median over rounds of that round's HEAD/BASE ratio of bests, which pairs
the two sides of a round against the drift between interpreters.

    PYTHONPATH=src python scripts/ladder.py --label mybranch
    PYTHONPATH=src python scripts/ladder.py --compare BENCH_main.json BENCH_mybranch.json
"""

import argparse
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pinkey.cli
import pinkey.packing
from pinkey import (Multigraph, PinModel, SizeLimitError, TerminalSet, TreePacking, audit,
                    base_scale, best_partition, draw_edge_keys, format_rational, load_model,
                    realize_multigraph, run_protocol, solve_capacity, spanning_packing,
                    steiner_packing, subset_family, upper_bound)

ROOT = Path(__file__).resolve().parent.parent
FOUND9_WEIGHTS = (1, 2, 0, 2, 5, 4, 1, 4, 3, 6, 0, 1, 0, 3, 1, 0, 5, 1, 3, 5, 4, 5,
                  3, 4, 6, 1, 5, 6, 5, 4, 3, 1, 4, 5, 0, 3)
FLOOR_COPIES = 34
LOAD_COPIES = 30
# each command with its full flag set, in the order the benchmark's requests
# write their flags
ARGV_TAILS = {
    "capacity": ["--set", "1,2", "--format", "structured"],
    "upper-bound": ["--set", "1,2", "--format", "structured"],
    "pack": ["--set", "1,2", "--scale", "2", "--mode", "exact", "--format", "structured"],
    "simulate": ["--set", "1,2", "--scale", "2", "--mode", "exact", "--seed", "7",
                 "--format", "structured"],
    "validate": ["--format", "structured"],
}
CAPACITY_TARGETS = (("", TerminalSet.full),
                    ("_pair", lambda m: TerminalSet.of(1, 2)),
                    ("_half", lambda m: TerminalSet.of(*range(1, math.ceil(m / 2) + 1))))


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
    rows += [(f"random_m{m}", integer_random(m)) for m in range(9, 13)]
    bridge = {(i + side, j + side): 20 for side in (0, 6)
              for i, j in itertools.combinations(range(1, 7), 2)}
    return rows + [("bridge_K6x20", Multigraph(12, bridge | {(6, 7): 1})),
                   ("dense_m20", integer_random(20))]


def dense_random(m: int) -> PinModel:
    rng = random.Random(m)
    weights = {}
    for pair in itertools.combinations(range(1, m + 1), 2):
        numerator = rng.randint(0, 6)
        weights[pair] = Fraction(numerator, rng.randint(1, 3))
    return PinModel.from_weights(m, weights)


def floor_set() -> list[tuple[PinModel, TerminalSet]]:
    rng = random.Random(6)
    cases = []
    for _ in range(FLOOR_COPIES):
        for size in (2, 3, 6):
            weights = {}
            for pair in itertools.combinations(range(1, 7), 2):
                if rng.random() >= 0.25:
                    weights[pair] = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            target = TerminalSet.of(*rng.sample(range(1, 7), size))
            cases.append((PinModel.from_weights(6, weights), target))
    return cases


def steiner_set(scale: int) -> list[tuple[Multigraph, TerminalSet]]:
    """The first 40 / scale graphs of the Steiner set, multiplicities times
    scale."""
    rng = random.Random(7)
    cases = []
    while len(cases) < 40 // scale:
        m = rng.randint(5, 7)
        weights = [rng.randint(0, 3) for _ in range(m * (m - 1) // 2)]
        target = TerminalSet.of(*rng.sample(range(1, m + 1), rng.randint(3, m - 1)))
        if sum(weights) <= 40:
            cases.append((weighted(m, weights, scale), target))
    return cases


def steiner_rows() -> list[tuple[str, list[tuple[Multigraph, TerminalSet]], int | None]]:
    """Each row's name, cases and exact-search edge cap (None: the default)."""
    path = Multigraph(20, {(i, i + 1): 1 for i in range(1, 20)})
    grid = Multigraph(16, {(v, v + step): 1 for v in range(1, 17) for step in (1, 4)
                           if (step == 1 and v % 4) or (step == 4 and v <= 12)})
    return [("set_s1", steiner_set(1), 40), ("set_s2", steiner_set(2), 80),
            ("path_m20", [(path, TerminalSet.of(1, 2, 3))], None),
            ("grid_corners", [(grid, TerminalSet.of(1, 4, 13, 16))], None)]


def load_set() -> list[str]:
    """The JSON texts of the ``cli/load_floor`` model files."""
    rng = random.Random(5)
    texts = []
    for _ in range(LOAD_COPIES):
        for m in (3, 4, 5, 6):
            units = dict.fromkeys(itertools.combinations(range(1, m + 1), 2), 0)
            for _ in range(rng.randint(m + 1, min(16, 3 * len(units)))):
                units[rng.choice([pair for pair, u in units.items() if u < 3])] += 1
            texts.append(json.dumps({"terminals": m, "weights": [
                {"i": i, "j": j, "value": f"{u}/2" if u % 2 else u // 2}
                for (i, j), u in units.items() if u]}))
    return texts


def git_revision(root: Path) -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
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


def spanning_row(graph: Multigraph, repeat: int) -> dict:
    packing, timing = timed(lambda: spanning_packing(graph), repeat)
    return {
        "terminals": graph.m,
        "edges": graph.total_edges(),
        "trees": packing.count,
        "groups": len(packing.groups),
        **timing,
    }


def capacity_row(model: PinModel, target: TerminalSet, repeat: int) -> dict:
    result, timing = timed(lambda: solve_capacity(model, target), repeat)
    return {
        "terminals": model.m,
        "columns": len(subset_family(model.m, target).subsets),
        "value": format_rational(result.value),
        **timing,
    }


def floor_row(cases, repeat: int) -> dict:
    pairs, timing = timed(
        lambda: [(solve_capacity(model, target).value, best_partition(model, target)[0])
                 for model, target in cases], repeat)
    return {
        "lps": len(cases),
        "sizes": [len(target) for _, target in cases],
        "capacities": [format_rational(capacity) for capacity, _ in pairs],
        "bounds": [format_rational(bound) for _, bound in pairs],
        **timing,
    }


def bound_row(m: int, repeat: int) -> dict:
    model = dense_random(m)
    value, timing = timed(lambda: upper_bound(model, TerminalSet.full(m)), repeat)
    return {
        "terminals": m,
        "value": format_rational(value),
        **timing,
    }


def protocol_row(edges: int, repeat: int) -> dict:
    pairs = {(1, 2): edges // 2, (2, 3): edges - edges // 2}
    graph = Multigraph(3, pairs)
    target = TerminalSet.of(1, 3)
    groups = steiner_packing(graph, target).groups
    keys = draw_edge_keys(graph, 0)
    fresh = [TreePacking(Multigraph(3, pairs), target, groups) for _ in range(repeat)]

    def protocol_and_audit():
        run = run_protocol(fresh.pop(), keys)
        return run, audit(run)

    (run, report), timing = timed(protocol_and_audit, repeat)
    return {
        "terminals": 3,
        "edges": edges,
        "key_bits": len(run.key_bits),
        "transcript_bits": len(run.transcript_bits),
        "audit_passed": report.passed,
        **timing,
    }


def steiner_row(cases, cap: int | None, repeat: int) -> dict:
    default = pinkey.packing.STEINER_EXACT_EDGE_CAP
    pinkey.packing.STEINER_EXACT_EDGE_CAP = cap or default
    try:
        packings, timing = timed(
            lambda: [steiner_packing(graph, target) for graph, target in cases], repeat)
    finally:
        pinkey.packing.STEINER_EXACT_EDGE_CAP = default
    return {
        "graphs": len(cases),
        "trees": sum(packing.count for packing in packings),
        **timing,
    }


def write_models(work: str, texts: list[str]) -> list[str]:
    """Write each model text to its own file; returns the paths in order."""
    paths = []
    for k, text in enumerate(texts):
        path = Path(work, f"model_{k:03d}.json")
        path.write_text(text + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def load_row(texts: list[str], repeat: int) -> dict:
    with tempfile.TemporaryDirectory() as work:
        paths = write_models(work, texts)
        graphs, timing = timed(
            lambda: [realize_multigraph(model, base_scale(model))
                     for model in map(load_model, paths)], repeat)
    return {
        "models": len(graphs),
        "edges": sum(graph.total_edges() for graph in graphs),
        **timing,
    }


def argv_row(texts: list[str], repeat: int) -> dict:
    # main's argument step; a checkout without the fast path uses argparse alone
    fast_args = getattr(pinkey.cli, "_fast_args", lambda argv: None)
    parse_args = pinkey.cli._PARSER.parse_args
    with tempfile.TemporaryDirectory() as work:
        argvs = [[command, path, *tail] for path in write_models(work, texts)
                 for command, tail in ARGV_TAILS.items()]
        parsed, timing = timed(
            lambda: [fast_args(argv) or parse_args(argv) for argv in argvs], repeat)
    return {
        "argvs": len(parsed),
        "fast": sum(fast_args(argv) is not None for argv in argvs),
        **timing,
    }


def ladder() -> list[tuple[str, object]]:
    """Every row's name and a call that times it given ``repeat`` and
    returns its fields, in ladder order."""
    rows = [(f"spanning/{name}", partial(spanning_row, graph))
            for name, graph in spanning_rows()]
    rows += [(f"capacity/dense_m{m}{suffix}", partial(capacity_row, dense_random(m), target(m)))
             for suffix, target in CAPACITY_TARGETS for m in range(9, 13)]
    unit = PinModel.from_weights(12, dict.fromkeys(itertools.combinations(range(1, 13), 2), 1))
    rows += [(f"capacity/unit_K12{suffix}", partial(capacity_row, unit, target(12)))
             for suffix, target in CAPACITY_TARGETS[1:]]
    rows.append(("capacity/floor_m6", partial(floor_row, floor_set())))
    rows += [(f"bound/dense_m{m}", partial(bound_row, m)) for m in range(9, 13)]
    rows += [(f"protocol/path_{edges // 1000}k", partial(protocol_row, edges))
             for edges in (30_000, 100_000, 300_000)]
    rows += [(f"steiner/{name}", partial(steiner_row, cases, cap))
             for name, cases, cap in steiner_rows()]
    texts = load_set()
    rows.append(("cli/load_floor", partial(load_row, texts)))
    rows.append(("cli/argv_floor", partial(argv_row, texts)))
    return rows


def describe(row: dict) -> str:
    family = row["row"].split("/")[0]
    if "limit" in row:
        return f"{row['row']:<24} {row['limit']}"
    if family == "spanning":
        text = (f"|E| = {row['edges']:>5}  trees {row['trees']:>4}  "
                f"groups {row['groups']:>4}")
    elif row["row"] == "capacity/floor_m6":
        tight = sum(c == b for c, b in zip(row["capacities"], row["bounds"]))
        text = f"LPs {row['lps']:>4}  tight {tight:>4}"
    elif family == "capacity":
        text = f"columns {row['columns']:>4}  C = {row['value']:<8}"
    elif family == "bound":
        text = f"C^ub = {row['value']:<8}"
    elif family == "protocol":
        text = (f"|E| = {row['edges']:>6}  |K| = {row['key_bits']:>6}  "
                f"|F| = {row['transcript_bits']:>6}")
    elif row["row"] == "cli/argv_floor":
        text = f"argvs {row['argvs']:>4}  fast {row['fast']:>4}"
    elif family == "cli":
        text = f"models {row['models']:>4}  edges {row['edges']:>5}"
    else:
        text = f"graphs {row['graphs']:>3}  trees {row['trees']:>4}"
    return f"{row['row']:<24} {text}  best {row['best_s']:.4f} s"


def table(sides: list[str], best: list[dict], prefix: str,
          medians: dict | None = None) -> list[str]:
    """Lines of per-row best times of two sides and HEAD/BASE, rows in
    BASE's order and then HEAD's own; with ``medians``, a column of each
    row's median per-round HEAD/BASE."""
    names = list(best[0]) + [name for name in best[1] if name not in best[0]]
    header = f"{'row':<24} {'BASE s':>9} {'HEAD s':>9} {'HEAD/BASE':>9}"
    lines = [f"BASE {sides[0]}", f"HEAD {sides[1]}",
             header if medians is None else f"{header} {'median':>9}"]
    for name in names:
        if not name.startswith(prefix):
            continue
        times = [side.get(name) for side in best]
        shown = ["-" if t is None else f"{t:.4f}" for t in times]
        ratio = "-" if None in times or not times[0] else f"{times[1] / times[0]:.3f}"
        line = f"{name:<24} {shown[0]:>9} {shown[1]:>9} {ratio:>9}"
        if medians is not None:
            line += f" {medians[name]:>9.3f}" if name in medians else f" {'-':>9}"
        lines.append(line)
    return lines


def best_times(report: dict) -> dict:
    """Each timed row's best time; rows that hit a size limit have none."""
    return {row["row"]: row["best_s"] for row in report["rows"] if "best_s" in row}


def compare_files(paths: list[Path], prefix: str) -> list[str]:
    reports = [json.loads(path.read_text(encoding="utf-8")) for path in paths]
    return table([f"{report['label']} ({report['revision']})" for report in reports],
                 [best_times(report) for report in reports], prefix)


def compare_roots(roots: list[Path], rounds: int, prefix: str) -> list[str]:
    """Time the ladder against each root's ``src`` in fresh interpreters,
    ``rounds`` times, the side that goes first alternating per round.  Each
    interpreter also times every row ``rounds`` times, so a millisecond row's
    best is not one cold call."""
    runs: list[list[dict]] = []  # per round, each side's best time per row
    with tempfile.TemporaryDirectory() as out:
        for k in range(rounds):
            times: list[dict] = [{}, {}]
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                subprocess.run(
                    [sys.executable, __file__, "--label", f"side{side}",
                     "--repeat", str(rounds), "--out", out, "--rows", prefix],
                    env=dict(os.environ, PYTHONPATH=str(roots[side] / "src")),
                    stdout=subprocess.DEVNULL, check=True)
                times[side] = best_times(json.loads(
                    Path(out, f"BENCH_side{side}.json").read_text(encoding="utf-8")))
            runs.append(times)
    best: list[dict] = [{}, {}]
    for times in runs:
        for side in (0, 1):
            for name, t in times[side].items():
                best[side][name] = min(t, best[side].get(name, math.inf))
    medians = {}
    for name in best[0].keys() & best[1].keys():
        ratios = [head[name] / base[name] for base, head in runs
                  if name in base and name in head and base[name]]
        if ratios:
            medians[name] = statistics.median(ratios)
    return table([f"{root} ({git_revision(root)})" for root in roots], best, prefix,
                 medians)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", help="names BENCH_<label>.json")
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per row (best kept); given two roots, also "
                             "the rounds of fresh interpreters per side")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--rows", default="", metavar="PREFIX",
                        help="only the rows whose name starts with PREFIX")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "HEAD"),
                        help="compare two BENCH_*.json files or two checkout roots "
                             "instead of timing")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be positive")
    if args.compare:
        if all(path.is_file() for path in args.compare):
            print("\n".join(compare_files(args.compare, args.rows)))
        elif all((path / "src" / "pinkey").is_dir() for path in args.compare):
            roots = [path.resolve() for path in args.compare]
            print("\n".join(compare_roots(roots, args.repeat, args.rows)))
        else:
            parser.error("--compare takes two BENCH_*.json files or two checkout "
                         "roots holding src/pinkey")
        return
    if args.label is None:
        parser.error("--label is required unless --compare is given")
    rows = []
    for name, time_row in ladder():
        if name.startswith(args.rows):
            try:
                fields = time_row(args.repeat)
            except SizeLimitError as exc:
                fields = {"limit": str(exc)}
            rows.append({"row": name, **fields})
            print(describe(rows[-1]))
    report = {
        "label": args.label,
        "revision": git_revision(ROOT),
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
