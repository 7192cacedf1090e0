"""Seeded request pools for the four benchmark workloads.

Every workload is a fixed *pool* of CLI requests built from the seed. The
pool's shape (terminal counts, target-set sizes, edge-count levels) is the
same for every seed; the seed only draws the weights, target members and
key seeds inside each slot. That keeps the cost mix of a pool, and so the
run-to-run spread of its latency percentiles, nearly independent of the
seed, while still giving pinkey different inputs on every seed.

Nothing here imports pinkey: pinkey sees only the model files written from
these descriptions.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("analyze", "span", "wide", "desk")

# Pool sizes: a run sends its pool three times (see worker.PASSES), which
# takes about 15 s on the seed code; every pool holds at least 100 distinct
# requests, so a run's p90 has at least 10 latencies beyond it. Per-input
# cost varies a lot at a fixed size (simplex pivots, matroid-union exchange
# chains), and only many inputs per run keep the run-to-run spread small.
#
# analyze: terminal-count slots and target sizes, from the acceptance-test
# model shape (weights p/q, p <= 8, q <= 4, a quarter of the pairs zero).
# Only m = 6: m = 7 and 8 LPs take 0.15-1.4 s each, so a few dozen of them
# would set a run's throughput and p90, and both would swing with the seed;
# mixing sizes puts the percentiles on the boundary between them.
ANALYZE_M = 6
ANALYZE_COPIES = 34
# span / wide: integer weights 0..4, edge totals stratified over a range.
SPAN_EDGES = (100, 200)
SPAN_COPIES = 7
WIDE_EDGES = (400, 800)
WIDE_COPIES = 7
GRAPH_M = (3, 4, 5, 6)
GRAPH_LEVELS = 4
# desk: weights from {0, 1/2, 1, 3/2}, at most 16 edges at the base scale.
DESK_LEVELS = 8
DESK_MAX_EDGES = 16
DESK_COPIES = 3
DESK_COMMANDS = ("validate", "capacity", "upper-bound", "pack", "simulate")


class Model:
    """A model as the benchmark knows it: m and exact pair weights."""

    def __init__(self, m: int, weights: dict[tuple[int, int], Fraction]):
        self.m = m
        self.weights = {pair: w for pair, w in sorted(weights.items()) if w}

    def document(self) -> dict:
        return {
            "terminals": self.m,
            "weights": [
                {"i": i, "j": j, "value": _render(w)}
                for (i, j), w in self.weights.items()
            ],
        }

    def base_scale(self) -> int:
        return math.lcm(*(w.denominator for w in self.weights.values()))

    def edge_total(self, scale: int) -> int:
        return int(sum(w * scale for w in self.weights.values()))


class Request:
    """One CLI call: subcommand, model, target set and optional scale/seed."""

    def __init__(self, command: str, model: int, target: tuple[int, ...],
                 full: bool, scale: int | None = None,
                 key_seed: int | None = None):
        self.command = command
        self.model = model
        self.target = target
        self.full = full
        self.scale = scale
        self.key_seed = key_seed

    def argv(self, path: str) -> list[str]:
        out = [self.command, path]
        if self.command != "validate" and not self.full:
            out += ["--set", ",".join(map(str, self.target))]
        if self.scale is not None:
            out += ["--scale", str(self.scale)]
        if self.key_seed is not None:
            out += ["--seed", str(self.key_seed)]
        return out + ["--format", "structured"]


class Pool:
    """Models plus the requests one pass over the workload makes, in the
    seeded order a pass uses."""

    def __init__(self, models: list[Model], requests: list[Request]):
        self.models = models
        self.requests = requests

    def write(self, directory: Path) -> list[str]:
        """Write one JSON file per model; returns the paths by model index."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for k, model in enumerate(self.models):
            path = directory / f"model_{k:03d}.json"
            path.write_text(json.dumps(model.document()) + "\n",
                            encoding="utf-8")
            paths.append(str(path))
        return paths


def _render(w: Fraction) -> object:
    return w.numerator if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def _pairs(m: int):
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            yield (i, j)


def _connected(m: int, weights: dict[tuple[int, int], Fraction]) -> bool:
    adjacency: dict[int, list[int]] = {v: [] for v in range(1, m + 1)}
    for (i, j), w in weights.items():
        if w:
            adjacency[i].append(j)
            adjacency[j].append(i)
    seen = {1}
    stack = [1]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == m


def _analyze(rng: random.Random) -> Pool:
    models, requests = [], []
    m = ANALYZE_M
    for _ in range(ANALYZE_COPIES):
        for k in sorted({2, (m + 1) // 2, m}):
            weights = {}
            for pair in _pairs(m):
                if rng.random() >= 0.25:
                    weights[pair] = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            if not weights:
                weights[(1, 2)] = Fraction(1)
            target = tuple(sorted(rng.sample(range(1, m + 1), k)))
            requests.append(Request("capacity", len(models), target, k == m))
            models.append(Model(m, weights))
    return Pool(models, requests)


def _integer_graph(rng: random.Random, m: int) -> dict[tuple[int, int], Fraction]:
    while True:
        weights = {
            pair: Fraction(rng.choice((0, 1, 1, 2, 2, 3, 3, 4)))
            for pair in _pairs(m)
        }
        if _connected(m, weights):
            return weights


def _scaled_graphs(rng: random.Random, command: str, edges: tuple[int, int],
                   copies: int, target_size) -> Pool:
    """Integer-weight models whose edge totals cover ``edges`` evenly:
    GRAPH_LEVELS equal buckets per terminal count, ``copies`` models per
    bucket, each at the scale n that puts n * sum(w) nearest a random point
    of its bucket. One model per request: a model that is slow to pack is
    slow at every scale, so sharing models would make the tail depend on a
    few draws."""
    models, requests = [], []
    lo, hi = edges
    width = (hi - lo) / GRAPH_LEVELS
    for m in GRAPH_M * copies:
        for level in range(GRAPH_LEVELS):
            weights = _integer_graph(rng, m)
            total = int(sum(weights.values()))
            goal = rng.uniform(lo + level * width, lo + (level + 1) * width)
            scale = max(math.ceil(lo / total),
                        min(hi // total, round(goal / total)))
            k = target_size(m)
            target = tuple(sorted(rng.sample(range(1, m + 1), k)))
            requests.append(Request(command, len(models), target, k == m,
                                    scale=scale,
                                    key_seed=rng.randrange(1 << 31)))
            models.append(Model(m, weights))
    return Pool(models, requests)


def _desk_model(rng: random.Random, m: int, edges: int) -> Model:
    """A connected model with exactly ``edges`` edges at base scale 2.

    Weights count half-units: a random spanning tree gets one unit per
    pair, the remaining units land on random pairs (at most three each,
    so every weight is in {0, 1/2, 1, 3/2}), and one odd pair keeps the
    base scale at 2.
    """
    while True:
        order = list(range(1, m + 1))
        rng.shuffle(order)
        units = dict.fromkeys(_pairs(m), 0)
        for k in range(1, m):
            a, b = order[k], order[rng.randrange(k)]
            units[(min(a, b), max(a, b))] = 1
        pairs = list(units)
        for _ in range(edges - (m - 1)):
            pair = rng.choice([p for p in pairs if units[p] < 3])
            units[pair] += 1
        if any(u % 2 for u in units.values()):
            return Model(m, {p: Fraction(u, 2) for p, u in units.items()})


def _desk(rng: random.Random) -> Pool:
    models, requests = [], []
    for m in GRAPH_M * DESK_COPIES:
        # edge levels spread evenly up to the most this m can reach
        lo, hi = m + 1, min(DESK_MAX_EDGES, 3 * m * (m - 1) // 2)
        for slot in range(DESK_LEVELS):
            edges = lo + round(slot * (hi - lo) / (DESK_LEVELS - 1))
            k = rng.randint(2, m)
            target = tuple(sorted(rng.sample(range(1, m + 1), k)))
            for command in DESK_COMMANDS:
                key_seed = (rng.randrange(1 << 31)
                            if command == "simulate" else None)
                requests.append(Request(command, len(models), target, k == m,
                                        key_seed=key_seed))
            models.append(_desk_model(rng, m, edges))
    return Pool(models, requests)


def build(workload: str, seed: int) -> Pool:
    """The seeded pool for a workload, with its pass order shuffled."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    if workload == "analyze":
        pool = _analyze(rng)
    elif workload == "span":
        pool = _scaled_graphs(rng, "simulate", SPAN_EDGES, SPAN_COPIES,
                              lambda m: m)
    elif workload == "wide":
        pool = _scaled_graphs(rng, "simulate", WIDE_EDGES, WIDE_COPIES,
                              lambda m: 2)
    elif workload == "desk":
        pool = _desk(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(pool.requests)
    return pool
