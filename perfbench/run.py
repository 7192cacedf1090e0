"""pinkey CLI benchmark: four seeded workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes
    python3 perfbench/run.py --selftest              # checker and trace checks
    python3 perfbench/run.py --tracking              # does the probe track?
    python3 perfbench/run.py --compare BASE HEAD     # two checkouts, paired runs

Run from the root of a checkout that holds ``src/pinkey``; pinkey is put on
``PYTHONPATH`` from there, not installed. Each workload runs in fresh
interpreters: set-up-only processes before and after one process that sets
up and runs the closed loop (one client, one request at a time, no threads)
through ``pinkey.cli.main`` in-process with stdout captured. Every output is
checked by the benchmark's own checker. Each request's wall time is scaled
to a reference host speed by a probe timed next to it, and its latency is
the median over several passes (see ``worker``); setup_s is scaled the
same way, and is the median over the run's fresh interpreters. The row
printed per run also shows the unscaled figures.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). Bytecode and generated model files
go under ``.perfbench_run/`` at the checkout root, never into ``src/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE.parent / ".perfbench_run"
sys.pycache_prefix = str(WORK_DIR / "pycache")  # keep bytecode out of the tree
sys.path.insert(0, str(HERE))

from tracer import COUNTS, LAYERS, ROUTES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 10  # fresh interpreters per run, half before and half
# after the measured loop, so they meet the host in more than one state
CHILD_TIMEOUT_S = 150
END_TO_END = (("throughput_rps", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.calls": "count",
                      f"{layer}.errors": "count",
                      f"{layer}.self_share": "fraction"})
    units.update({f"packing.{route}.self_s": "s" for route in ROUTES})
    units.update({name: "bytes" if name.endswith("bytes_in")
                  or name.endswith("bytes_out") else "count"
                  for name in COUNTS})
    return units


class Checkout:
    """A source tree to benchmark: ``root/src/pinkey`` plus a work area."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        if not (root / "src" / "pinkey" / "cli.py").is_file():
            raise BenchError(f"no src/pinkey/cli.py under {root}")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONPYCACHEPREFIX=sys.pycache_prefix,
                        PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def build(self) -> None:
        """Compile pinkey and the benchmark into the bytecode cache, so no
        timed import pays for compiling and nothing lands in src/."""
        for path in (self.root / "src", HERE):
            if not compileall.compile_dir(str(path), quiet=1):
                raise BenchError(f"compiling {path} failed")

    def child(self, role: str, workload: str, seed: int, seconds: float,
              tag: str) -> dict:
        data = self.work / "data" / f"{workload}-{seed}"
        out = self.work / f"result-{workload}-{seed}-{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), role, workload,
               str(seed), str(seconds), str(data), str(out)]
        try:
            done = subprocess.run(cmd, env=self.env, cwd=self.root,
                                  timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                raise BenchError(f"{role} process for {workload} exited "
                                 f"{done.returncode}:\n{done.stderr[-2000:]}")
            if done.stderr:
                sys.stderr.write(done.stderr)
            return json.loads(out.read_text(encoding="utf-8"))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{role} process for {workload} timed out")
        finally:
            out.unlink(missing_ok=True)

    def run(self, workload: str, seed: int, seconds: float, trace: bool) -> dict:
        """One benchmark run: set-up samples, then the measured loop. Every
        process of the run writes the same model files into one directory.
        setup_s is the median scaled set-up time of the run's fresh
        interpreters, started before and after the loop so that they meet
        the host in more than one state."""
        before = SETUP_SAMPLES // 2
        try:
            samples = [self.child("setup", workload, seed, seconds, f"s{k}")
                       for k in range(before)]
            result = self.child("trace" if trace else "measure", workload,
                                seed, seconds, "m")
            samples += [self.child("setup", workload, seed, seconds, f"s{k}")
                        for k in range(before, SETUP_SAMPLES - 1)]
        finally:
            shutil.rmtree(self.work / "data" / f"{workload}-{seed}",
                          ignore_errors=True)
        samples.append(result)
        result["metrics"]["setup_s"] = statistics.median(
            sample["setup_s"] for sample in samples)
        result["wall"]["setup_s"] = statistics.median(
            sample["setup_wall"] for sample in samples)
        if trace:
            spans = self.work / f"spans-{workload}-{seed}.json"
            spans.write_text(json.dumps(result.pop("spans")), encoding="utf-8")
            result["spans_file"] = str(spans)
        return result


def row(workload: str, result: dict) -> str:
    metrics = result["metrics"]
    cells = [f"{workload:<8}"]
    for name, unit in END_TO_END:
        cells.append(f"{name}={metrics[name]:.4g} {unit}")
    rate = result["failed"] / result["attempted"]
    cells.append(f"error_rate={rate:.4g} ({result['failed']}/"
                 f"{result['attempted']})")
    cells.append(f"samples={result['requests']}")
    wall = result["wall"]
    cells.append(f"| unscaled: {wall['throughput_rps']:.4g} 1/s, "
                 f"p50 {wall['latency_p50_ms']:.4g} ms, p90 "
                 f"{wall['latency_p90_ms']:.4g} ms, median setup "
                 f"{wall['setup_s']:.4g}"
                 f" s; import {result['import_s']:.4g} s of set-up")
    return "  ".join(cells)


def verdict(result: dict) -> dict:
    return {"correct": result["failed"] == 0 and not result["notes"],
            "attempted": result["attempted"], "failed": result["failed"]}


def report_single(checkout: Checkout, args) -> dict:
    result = checkout.run(args.workload, args.seed, args.seconds, args.trace)
    print(row(args.workload, result))
    for note in result["notes"]:
        print(f"  failure: {note}")
    out = verdict(result)
    if args.trace:
        units = per_layer_units()
        for name in units:
            print(f"  {name} = {result['layers'][name]:.6g} {units[name]}")
        print(f"  spans written to {result['spans_file']}")
        out["metrics"] = {name: {"value": result["layers"][name], "unit": unit}
                          for name, unit in units.items()}
    else:
        out["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                          for name, unit in END_TO_END}
    return out


def report_all(checkout: Checkout, args) -> dict:
    """Every workload untraced, then traced; one row each, plus the tracing
    overhead 1 - traced/untraced throughput."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        plain = checkout.run(workload, args.seed, args.seconds, False)
        traced = checkout.run(workload, args.seed, args.seconds, True)
        print(row(workload, plain))
        overhead = 1 - (traced["metrics"]["throughput_rps"]
                        / plain["metrics"]["throughput_rps"])
        shares = sorted(((traced["layers"][f"{layer}.self_share"], layer)
                         for layer in LAYERS), reverse=True)
        print(f"{'':<8}  tracing overhead={overhead:.3f}  top self time: "
              + ", ".join(f"{layer} {share:.1%}" for share, layer in shares[:4]))
        for result in (plain, traced):
            for note in result["notes"]:
                print(f"  failure: {note}")
            part = verdict(result)
            total["correct"] &= part["correct"]
            total["attempted"] += part["attempted"]
            total["failed"] += part["failed"]
        for name, unit in END_TO_END:
            total["metrics"][f"{workload}.{name}"] = {
                "value": plain["metrics"][name], "unit": unit}
        total["metrics"][f"{workload}.trace_overhead"] = {
            "value": overhead, "unit": "fraction"}
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--tracking", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            import compare
            return compare.main(args, [Checkout(Path(p).resolve(),
                                                WORK_DIR / f"side{k}")
                                       for k, p in enumerate(args.compare)])
        checkout = Checkout(HERE.parent, WORK_DIR)
        checkout.build()
        if args.selftest:
            import selftest
            return selftest.main(checkout)
        if args.tracking:
            import tracking
            return tracking.main(checkout)
        if args.workload is None:
            parser.error("give --workload, --selftest, --tracking or --compare")
        if args.workload == "all":
            out = report_all(checkout, args)
        else:
            out = report_single(checkout, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
