"""One benchmark process for one workload, started by run.py.

    python3 worker.py ROLE WORKLOAD SEED SECONDS DATA_DIR OUT_FILE

ROLE is ``setup`` (set up once, report the set-up time), ``measure``
(set up, then run the closed loop untraced) or ``trace`` (set up, then run
the loop with the tracer installed). The result is one JSON object written
to OUT_FILE.

Set-up is timed from before ``import pinkey.cli`` in this fresh
interpreter, through generating and writing the seeded model files, to the
end of one untimed warm-up request. The benchmark's own modules are
imported after pinkey so that pinkey's import pays for the standard-library
modules it needs.

On a shared host the same code runs up to twice as slowly while other
tenants load the processor; that state comes and goes within a second and
sometimes lasts minutes, and CPU time slows with it. So a fixed piece of
benchmark work, the probe, is timed after every request, and each request's
wall time is scaled by the reference probe time over the mean of the probes
just before and just after it: the result is the request's time at the
reference host speed. The probe mixes the three kinds of work pinkey's
requests do (interpreted int and dict code, Fraction arithmetic, XOR and
shifts on long ints), and ``python3 perfbench/run.py --tracking`` measures,
per workload, how closely request times follow probe times. Each request is
sent once in each of ``PASSES`` passes and its latency is the median of its
scaled times. The same figures from unscaled wall times go under ``wall``,
for reading only.
"""

import sys
import time

START = time.perf_counter()
import pinkey.cli  # noqa: E402  (timed: fresh-interpreter import)

IMPORTED = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from checker import Checker, CheckError  # noqa: E402
from tracer import COUNTS, LAYERS, ROUTES, Tracer  # noqa: E402

MIN_REQUESTS = 100  # so at least 10 latencies lie beyond the p90
PASSES = 3
PROBE_REF_S = 0.0006  # the probe's duration at the reference host speed
_PROBE_ROWS = [int.from_bytes(bytes(range(k, k + 64)), "little")
               for k in range(64)]
_PROBE_MASK = (1 << 512) - 1
POOL_SECONDS = 15  # a run over the whole pool takes about this long
MAX_FAILURE_NOTES = 5


def call(argv: list[str]) -> tuple[int | None, str, float, str | None]:
    """One request through ``pinkey.cli.main`` with stdout captured.

    Returns (exit code, stdout, seconds inside main, exception text)."""
    out, err = io.StringIO(), io.StringIO()
    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    problem = None
    code = None
    try:
        begin = time.perf_counter()
        try:
            code = pinkey.cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not the end
            problem = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - begin
    finally:
        sys.stdout, sys.stderr = real
    return code, out.getvalue(), elapsed, problem


def _probe_work() -> int:
    """The three kinds of work pinkey's requests do, in fixed amounts:
    interpreted int and dict code, Fraction arithmetic, and XOR and
    rotation of 512-bit ints."""
    table = {}
    acc = 1
    for i in range(1000):
        acc = (acc * 1103515245 + 12345) % 2147483648
        table[acc & 255] = i
        if acc & 1:
            acc ^= len(table)
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    bits = acc
    for _ in range(8):
        for row in _PROBE_ROWS:
            bits ^= row
            bits = ((bits << 1) | (bits >> 511)) & _PROBE_MASK
    return bits ^ total.denominator


def probe() -> float:
    """Wall seconds of a fixed piece of benchmark work (no pinkey code)."""
    begin = time.perf_counter()
    _probe_work()
    return time.perf_counter() - begin


WARMUP = workloads.Request("validate", 0, (), full=True)


def setup(workload: str, seed: int, data_dir: Path):
    """Generate and write the pool, then make the warm-up request: a cheap
    ``validate`` of the first model, so that set-up time does not depend on
    how hard the seed's first request happens to be.

    Returns the pool, its model paths, the warm-up result and the set-up
    wall time, unscaled and scaled by the median of three probes taken
    right after it (the probe needs ``fractions``, which pinkey imports, so
    it cannot run before the import without taking that off the clock)."""
    pool = workloads.build(workload, seed)
    paths = pool.write(data_dir)
    warm = call(WARMUP.argv(paths[WARMUP.model]))
    spent = time.perf_counter() - START
    factor = PROBE_REF_S / statistics.median(probe() for _ in range(3))
    return pool, paths, warm, (spent, spent * factor)


def requests_for(pool, seconds: float) -> int:
    """How many of the pool's (shuffled) requests a run of ``seconds``
    sends: the pool is sized for POOL_SECONDS on the seed code, and a
    shorter run takes a prefix of it, never fewer than MIN_REQUESTS."""
    share = round(len(pool.requests) * seconds / POOL_SECONDS)
    return min(len(pool.requests), max(MIN_REQUESTS, share))


def run_passes(pool, paths, checker, count: int, tracer: Tracer | None):
    """PASSES passes over the first ``count`` requests of the pool, one
    request at a time (closed loop, one client, no think time), with a probe
    after each request.

    Returns each request's wall times and scaled times, the failure count
    and notes."""
    walls: list[list[float]] = [[] for _ in range(count)]
    scaled: list[list[float]] = [[] for _ in range(count)]
    notes: list[str] = []
    failed = 0
    before = probe()
    for _ in range(PASSES):
        for key, request in enumerate(pool.requests[:count]):
            if tracer is not None:
                tracer.request = key
            code, out, elapsed, problem = call(
                request.argv(paths[request.model]))
            after = probe()
            walls[key].append(elapsed)
            scaled[key].append(elapsed * 2 * PROBE_REF_S / (before + after))
            before = after
            try:
                if problem is not None:
                    raise CheckError(problem)
                checker.check(key, request, code, out)
            except CheckError as exc:
                failed += 1
                if len(notes) < MAX_FAILURE_NOTES:
                    notes.append(f"{' '.join(request.argv('MODEL'))}: {exc}")
            if tracer is not None:
                tracer.counts["cli.bytes_out"] += len(out)
    return walls, scaled, failed, notes


def latency_metrics(latencies, failed_share: float) -> dict:
    """Throughput is the share of requests that succeeded over the mean
    latency: one client sending the pool back to back at these latencies."""
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "throughput_rps": (1 - failed_share) * len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
    }


def traced_metrics(tracer: Tracer, speed: float) -> dict:
    """Per-layer values for one pass over the requests: totals over the
    run divided by PASSES, self times scaled by the run's mean ``speed``
    factor. Every pass sends the same requests, so the counts come out as
    whole numbers."""
    totals = tracer.summary()
    for key in totals:
        if key.endswith(".self_s"):
            totals[key] *= speed
    totals.update(tracer.counts)
    out = {}
    for layer in LAYERS:
        for kind in ("self_s", "calls", "errors"):
            out[f"{layer}.{kind}"] = totals[f"{layer}.{kind}"] / PASSES
    busy = sum(totals[f"{layer}.self_s"] for layer in LAYERS)
    for layer in LAYERS:
        out[f"{layer}.self_share"] = totals[f"{layer}.self_s"] / busy
    for route in ROUTES:
        out[f"packing.{route}.self_s"] = totals[f"packing.{route}.self_s"] / PASSES
    for name in COUNTS:
        out[name] = totals[name] / PASSES
    return out


def main() -> int:
    role, workload, seed, seconds, data_dir, out_file = sys.argv[1:7]
    pool, paths, warm, (setup_wall, setup_s) = setup(
        workload, int(seed), Path(data_dir))
    result = {"setup_s": setup_s, "setup_wall": setup_wall,
              "import_s": IMPORTED - START}
    if role != "setup":
        checker = Checker(pool.models)
        tracer = Tracer() if role == "trace" else None
        if tracer is not None:
            tracer.install()
        try:
            walls, scaled, failed, notes = run_passes(
                pool, paths, checker, requests_for(pool, float(seconds)),
                tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        code, out, _, problem = warm
        try:
            if problem is not None:
                raise CheckError(problem)
            checker.check(-1, WARMUP, code, out)
        except CheckError as exc:
            notes.append(f"warm-up request: {exc}")
        attempted = PASSES * len(walls)
        result.update(attempted=attempted, failed=failed, notes=notes,
                      requests=len(walls), metrics=latency_metrics(
                          [statistics.median(t) for t in scaled],
                          failed / attempted),
                      wall=latency_metrics(
                          [statistics.median(t) for t in walls],
                          failed / attempted))
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"]["peak_rss_mb"] = rss_kib / 1024
        if tracer is not None:
            speed = sum(map(sum, scaled)) / sum(map(sum, walls))
            result["layers"] = traced_metrics(tracer, speed)
            result["missing"] = tracer.missing
            result["spans"] = tracer.dump()
    Path(out_file).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
