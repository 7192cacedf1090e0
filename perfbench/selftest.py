"""Self-test of the benchmark's own checks.

1. Real outputs from every workload's request kinds must pass the checker,
   and every tampered copy of them must be rejected.
2. Work counts from the tracer must repeat exactly: the same requests run
   traced in two fresh processes give identical counts and call numbers.

Run through ``python3 perfbench/run.py --selftest``; the parts that need
pinkey run in child processes with pinkey on the path.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
PER_COMMAND = 4  # cheapest requests of each subcommand in each workload


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _bump(text: str, delta: Fraction) -> str:
    num, _, den = text.partition("/")
    value = Fraction(int(num), int(den or 1)) + delta
    return str(value.numerator) if value.denominator == 1 else str(value)


def _edit(path, change):
    """A tamper that applies ``change(doc)`` to a deep copy."""
    def tamper(doc):
        doc = copy.deepcopy(doc)
        return None if change(doc) is False else doc
    tamper.__name__ = path
    return tamper


def _set(key, value):
    def change(doc):
        doc[key] = value(doc[key]) if callable(value) else value
    return change


def _first_weight(doc):
    doc["optimal_weights"][0]["value"] = _bump(
        doc["optimal_weights"][0]["value"], Fraction(1, 3))


def _subset_with_target(doc):
    doc["optimal_weights"][0]["subset"] = sorted(
        set(doc["optimal_weights"][0]["subset"]) | set(doc["set"]))
    if len(doc["optimal_weights"][0]["subset"]) == doc["terminals"]:
        return False


def _drop_subset(doc):
    if len(doc["optimal_weights"]) < 2:
        return False
    doc["optimal_weights"].pop()


def _repeat_terminal(doc):
    atoms = doc["minimizing_partition"]
    atoms[1] = sorted(atoms[1] + [atoms[0][0]])


def _drop_terminal(doc):
    max(doc["minimizing_partition"], key=len).pop()


def _drop_tree_consistently(doc):
    if not doc["trees"] or 2 < len(doc["set"]) < doc["terminals"]:
        return False  # Steiner counts are only bounded, not certified
    doc["trees"].pop()
    doc["tree_count"] -= 1
    doc["rate"] = str(Fraction(doc["tree_count"], doc["scale"]))


def _reuse_edge(doc):
    if len(doc["trees"]) < 2:
        return False
    doc["trees"][1][0] = list(doc["trees"][0][0])


def _copy_beyond(doc):
    if not doc["trees"]:
        return False
    doc["trees"][0][0][2] += 10**6


def _cut_tree(doc):
    if not doc["trees"] or len(doc["trees"][0]) < 2:
        return False
    doc["trees"][0].pop()


def _bad_support(doc):
    if not doc.get("transcript"):
        return False
    entry = doc["transcript"][0]
    entry["support"] = [entry["support"][0], entry["support"][0]]


def _wrong_sender(doc):
    if not doc.get("transcript"):
        return False
    doc["transcript"][0]["terminal"] = doc["terminals"] + 1


def _drop_broadcast(doc):
    if not doc.get("transcript"):
        return False
    doc["transcript"].pop()
    doc["transcript_bits"] -= 1
    doc["residual_bits"] += 1


def _unrecovered(doc):
    doc["recovered"][0]["ok"] = False


TAMPERS = {
    "any": [
        _edit("format_version", _set("format_version", 2)),
        _edit("terminals", _set("terminals", lambda v: v + 1)),
    ],
    "capacity": [
        _edit("capacity+1/7", _set("capacity", lambda v: _bump(v, Fraction(1, 7)))),
        _edit("capacity-1/7", _set("capacity", lambda v: _bump(v, Fraction(-1, 7)))),
        _edit("upper_bound", _set("upper_bound", lambda v: _bump(v, Fraction(1, 3)))),
        _edit("tight", _set("tight", lambda v: not v)),
        _edit("weight value", _first_weight),
        _edit("subset holds A", _subset_with_target),
        _edit("subset dropped", _drop_subset),
    ],
    "upper-bound": [
        _edit("bound", _set("upper_bound", lambda v: _bump(v, Fraction(1, 2)))),
        _edit("terminal in two atoms", _repeat_terminal),
        _edit("terminal dropped", _drop_terminal),
    ],
    "pack": [
        _edit("tree_count", _set("tree_count", lambda v: v + 1)),
        _edit("tree dropped", _drop_tree_consistently),
        _edit("edge reused", _reuse_edge),
        _edit("copy beyond multiplicity", _copy_beyond),
        _edit("tree cut", _cut_tree),
        _edit("edge_total", _set("edge_total", lambda v: v + 1)),
        _edit("rate", _set("rate", lambda v: _bump(v, Fraction(1, 5)))),
    ],
    "simulate": [
        _edit("security_index", _set("security_index", "1")),
        _edit("audit_passed", _set("audit_passed", False)),
        _edit("recovery", _unrecovered),
        _edit("key_bits", _set("key_bits", lambda v: v + 1)),
        _edit("residual_bits", _set("residual_bits", lambda v: v + 1)),
        _edit("audit_method", _set("audit_method", "rank?")),
        _edit("support", _bad_support),
        _edit("sender", _wrong_sender),
        _edit("broadcast dropped", _drop_broadcast),
    ],
    "validate": [
        _edit("base_scale", _set("base_scale", lambda v: v * 2)),
        _edit("pairs_nonzero", _set("pairs_nonzero", lambda v: v + 1)),
        _edit("valid", _set("valid", False)),
    ],
}
TAMPERS["simulate"] += TAMPERS["pack"]


def _sample(pool, limit):
    """Up to ``limit`` of the cheapest requests of each command."""
    def cost(request):
        model = pool.models[request.model]
        return (model.m, model.edge_total(request.scale or model.base_scale()))
    chosen = []
    for command in sorted({r.command for r in pool.requests}):
        same = sorted((r for r in pool.requests if r.command == command), key=cost)
        chosen += same[:limit]
    return chosen


def child_checker() -> int:
    """Check real outputs, then tampered ones (runs with pinkey on the path)."""
    import worker
    import workloads
    from checker import Checker, CheckError

    work = Path(sys.argv[2])
    caught = missed = passed = 0
    for workload in workloads.WORKLOADS:
        pool = workloads.build(workload, 1)
        paths = pool.write(work / workload)
        checker = Checker(pool.models)
        for request in _sample(pool, PER_COMMAND):
            code, out, _, problem = worker.call(
                request.argv(paths[request.model]))
            try:
                checker.check_fresh(request, out)
                if code != 0 or problem:
                    raise CheckError(f"exit {code} {problem}")
                passed += 1
            except CheckError as exc:
                print(f"FAIL {workload} {request.command}: real output "
                      f"rejected: {exc}")
                missed += 1
                continue
            doc = json.loads(out)
            variants = [("exit code", 1, out), ("two lines", 0, out + "\n"),
                        ("not json", 0, out[:-2] + "\n")]
            for tamper in TAMPERS["any"] + TAMPERS[request.command]:
                bad = tamper(doc)
                if bad is not None:
                    variants.append((tamper.__name__, 0, _dump(bad)))
            for name, bad_code, text in variants:
                try:
                    Checker(pool.models).check(0, request, bad_code, text)
                except CheckError:
                    caught += 1
                else:
                    print(f"FAIL {workload} {request.command}: tampered "
                          f"'{name}' accepted")
                    missed += 1
    print(f"checker: {passed} real outputs accepted, {caught} tampered "
          f"outputs rejected, {missed} mistakes")
    return 1 if missed else 0


def child_counts() -> int:
    """Traced counts for a fixed request sample; printed as JSON."""
    import worker
    import workloads
    from tracer import Tracer

    work = Path(sys.argv[2])
    counts = {}
    for workload in workloads.WORKLOADS:
        pool = workloads.build(workload, 1)
        paths = pool.write(work / workload)
        tracer = Tracer()
        tracer.install()
        try:
            for request in _sample(pool, PER_COMMAND):
                worker.call(request.argv(paths[request.model]))
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        counts[workload] = dict(tracer.counts)
        counts[workload].update({k: v for k, v in summary.items()
                                 if k.endswith((".calls", ".errors"))})
    print(json.dumps(counts, sort_keys=True))
    return 0


def main(checkout) -> int:
    """Run both self-tests in child processes; nonzero if either fails."""
    def child(part: str, tag: str) -> subprocess.CompletedProcess:
        work = checkout.work / f"selftest-{tag}"
        try:
            return subprocess.run(
                [sys.executable, str(HERE / "selftest.py"), part, str(work)],
                env=checkout.env, cwd=checkout.root, text=True,
                stdout=subprocess.PIPE, timeout=300)
        finally:
            import shutil
            shutil.rmtree(work, ignore_errors=True)

    checked = child("checker", "checker")
    print(checked.stdout, end="")
    runs = [child("counts", f"counts{k}") for k in range(2)]
    same = (all(r.returncode == 0 for r in runs)
            and runs[0].stdout == runs[1].stdout)
    print("trace counts: " + ("identical across two fresh processes" if same
                              else "DIFFER between two fresh processes"))
    return 0 if checked.returncode == 0 and same else 1


if __name__ == "__main__":
    sys.exit({"checker": child_checker, "counts": child_counts}[sys.argv[1]]())
