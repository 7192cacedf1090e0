"""Independent checks of pinkey's structured CLI output.

Every check works from the benchmark's own description of the model (m and
exact pair weights) with its own arithmetic: partition and bipartition
enumeration, tree walks, canonical edge numbering. No pinkey code is used,
so a wrong answer cannot be confirmed by the code that produced it.

A request's first output is checked in full; a repeat of the same request
must reproduce it byte for byte (compared by SHA-256 digest, so the checker
keeps no outputs), since pinkey promises identical output for identical
inputs and seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from workloads import Model, Request

BRUTEFORCE_EDGE_CAP = 20  # README: brute-force audit runs up to 20 edges


class CheckError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def parse_rational(text: object) -> Fraction:
    _require(isinstance(text, str), f"rational must be a string, got {text!r}")
    num, _, den = text.partition("/")
    try:
        value = Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"malformed rational {text!r}")
    _require(den == "" or value.denominator == int(den) != 1,
             f"rational {text!r} is not in lowest terms")
    return value


def _partitions(m: int):
    """Restricted-growth strings of 1..m (as lists of atom numbers)."""
    assignment = [0] * m

    def rec(k: int, atoms: int):
        if k == m:
            yield assignment, atoms
            return
        for atom in range(atoms + 1):
            assignment[k] = atom
            yield from rec(k + 1, atoms + (atom == atoms))

    yield from rec(0, 0)


def _crossing(assignment, weights) -> Fraction | int:
    return sum(w for (i, j), w in weights.items()
               if assignment[i - 1] != assignment[j - 1])


def _qualifying(m: int, target: tuple[int, ...]):
    """Partitions with >= 2 atoms, every atom meeting the target."""
    for assignment, atoms in _partitions(m):
        if atoms < 2:
            continue
        met = {assignment[t - 1] for t in target}
        if len(met) == atoms:
            yield assignment, atoms


def partition_bound(model: Model, target: tuple[int, ...]) -> Fraction:
    """min over qualifying partitions of crossing weight / (atoms - 1)."""
    scale = model.base_scale()
    ints = {p: int(w * scale) for p, w in model.weights.items()}
    best = None
    for assignment, atoms in _qualifying(model.m, target):
        value = Fraction(_crossing(assignment, ints), (atoms - 1) * scale)
        if best is None or value < best:
            best = value
    return best


def tree_bound(m: int, mult: dict, target: tuple[int, ...]) -> int:
    """min over qualifying partitions of floor(crossing edges / (atoms - 1)):
    the Nash-Williams/Tutte count when the target is everyone, and an upper
    bound on any Steiner packing otherwise."""
    return min(_crossing(a, mult) // (atoms - 1)
               for a, atoms in _qualifying(m, target))


def min_cut(m: int, mult: dict, s: int, t: int) -> int:
    """Minimum s-t cut by enumerating every bipartition."""
    others = [v for v in range(1, m + 1) if v not in (s, t)]
    best = None
    for bits in range(1 << len(others)):
        side = {s} | {v for k, v in enumerate(others) if bits >> k & 1}
        cut = sum(c for (i, j), c in mult.items() if (i in side) != (j in side))
        best = cut if best is None else min(best, cut)
    return best


def _cut_half(mask_members: set[int], weights) -> Fraction:
    return sum((w for (i, j), w in weights.items()
                if (i in mask_members) != (j in mask_members)), Fraction(0)) / 2


class Checker:
    """Checks outputs against one pool; caches per-request expectations."""

    def __init__(self, models: list[Model]):
        self.models = models
        self._seen: dict[int, bytes] = {}  # request key -> output digest
        self._bounds: dict[tuple, Fraction] = {}

    def check(self, key: int, request: Request, code: int, out: str) -> None:
        """Raise CheckError unless ``out`` is a correct answer to
        ``request``. ``key`` identifies the request within the pool."""
        _require(code == 0, f"exit code {code}")
        digest = hashlib.sha256(out.encode()).digest()
        previous = self._seen.get(key)
        if previous is not None:
            _require(digest == previous, "output differs from an earlier run "
                                         "of the same request")
            return
        try:
            self.check_fresh(request, out)
        except (KeyError, TypeError, ValueError, AttributeError,
                IndexError) as exc:
            raise CheckError(f"malformed output: {type(exc).__name__}: {exc}")
        self._seen[key] = digest

    def check_fresh(self, request: Request, out: str) -> None:
        _require(out.endswith("\n") and out.count("\n") == 1,
                 "structured output must be exactly one line")
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            raise CheckError(f"output is not JSON: {exc}")
        _require(isinstance(doc, dict), "output is not a JSON object")
        _require(doc.get("format_version") == 1, "format_version is not 1")
        _require(doc.get("command") == request.command, "wrong command echoed")
        model = self.models[request.model]
        _require(doc.get("terminals") == model.m, "wrong terminal count")
        if request.command != "validate":
            _require(doc.get("set") == list(request.target), "wrong target set")
        getattr(self, "_" + request.command.replace("-", "_"))(request, model, doc)

    def _bound(self, request: Request, model: Model) -> Fraction:
        key = (request.model, request.target)
        if key not in self._bounds:
            self._bounds[key] = partition_bound(model, request.target)
        return self._bounds[key]

    def _validate(self, request, model, doc) -> None:
        _require(doc.get("exact") is True and doc.get("valid") is True,
                 "model not reported as a valid exact model")
        _require(doc.get("pairs_nonzero") == len(model.weights),
                 "wrong count of correlated pairs")
        _require(doc.get("pmf_pairs") == 0, "wrong pmf pair count")
        lcm = math.lcm(*(w.denominator for w in model.weights.values()))
        _require(doc.get("base_scale") == lcm, "base_scale is not the lcm of "
                                               "the weight denominators")

    def _capacity(self, request, model, doc) -> None:
        m, target = model.m, request.target
        value = parse_rational(doc.get("capacity"))
        bound = parse_rational(doc.get("upper_bound"))
        _require(bound == self._bound(request, model),
                 "upper_bound is not the partition minimum")
        _require(value <= bound, "capacity exceeds the upper bound")
        if len(target) in (2, m):
            _require(value == bound, "capacity must equal the bound for "
                                     "|A| = 2 or A = M")
        _require(doc.get("tight") is (value == bound), "wrong tight flag")
        weights = doc.get("optimal_weights")
        _require(isinstance(weights, list) and weights, "no optimal weights")
        cover = [Fraction(0)] * (m + 1)
        objective = Fraction(0)
        seen = set()
        for entry in weights:
            subset = entry.get("subset")
            _require(isinstance(subset, list) and subset == sorted(set(subset))
                     and subset and all(1 <= t <= m for t in subset)
                     and len(subset) < m, f"malformed subset {subset!r}")
            _require(not set(target) <= set(subset),
                     f"subset {subset} contains the whole target set")
            _require(tuple(subset) not in seen, f"subset {subset} repeated")
            seen.add(tuple(subset))
            lam = parse_rational(entry.get("value"))
            _require(lam > 0, f"non-positive weight on subset {subset}")
            for t in subset:
                cover[t] += lam
            objective += lam * _cut_half(set(subset), model.weights)
        _require(all(c == 1 for c in cover[1:]),
                 "weights do not cover every terminal exactly once")
        _require(objective == value, "objective of the optimal weights "
                                     "is not the reported capacity")

    def _upper_bound(self, request, model, doc) -> None:
        atoms = doc.get("minimizing_partition")
        _require(isinstance(atoms, list) and len(atoms) >= 2,
                 "partition needs at least two atoms")
        flat = [t for atom in atoms for t in atom]
        _require(sorted(flat) == list(range(1, model.m + 1)),
                 "atoms do not partition the terminals")
        _require(all(set(atom) & set(request.target) for atom in atoms),
                 "an atom misses the target set")
        where = {t: k for k, atom in enumerate(atoms) for t in atom}
        crossing = sum((w for (i, j), w in model.weights.items()
                        if where[i] != where[j]), Fraction(0))
        bound = parse_rational(doc.get("upper_bound"))
        _require(crossing / (len(atoms) - 1) == bound,
                 "bound is not the partition's crossing weight / (atoms - 1)")
        _require(bound == self._bound(request, model),
                 "bound is not the partition minimum")

    def _pack(self, request, model, doc) -> None:
        scale = request.scale or model.base_scale()
        mult = {p: int(w * scale) for p, w in model.weights.items()}
        total = sum(mult.values())
        _require(doc.get("scale") == scale and doc.get("mode") == "exact",
                 "wrong scale or mode")
        _require(doc.get("edge_total") == total, "edge_total is not sum n*w")
        trees = doc.get("trees")
        _require(isinstance(trees, list), "trees missing")
        count = doc.get("tree_count")
        _require(count == len(trees), "tree_count differs from the trees listed")
        _require(parse_rational(doc.get("rate")) == Fraction(count, scale),
                 "rate is not tree_count / scale")
        used = set()
        for k, tree in enumerate(trees):
            vertices = set()
            for edge in tree:
                _require(isinstance(edge, list) and len(edge) == 3,
                         f"tree {k}: malformed edge {edge!r}")
                i, j, c = edge
                _require(0 <= c < mult.get((i, j), 0),
                         f"tree {k}: edge {edge} beyond the pair's multiplicity")
                _require((i, j, c) not in used, f"edge {edge} used twice")
                used.add((i, j, c))
                vertices.update((i, j))
            _require(_is_tree(tree, vertices), f"tree {k} is not a tree")
            _require(set(request.target) <= vertices,
                     f"tree {k} does not span the target set")
        target = request.target
        if len(target) == 2:
            expected = min_cut(model.m, mult, *target)
            _require(count == expected, f"{count} paths, min cut is {expected}")
        elif len(target) == model.m:
            expected = tree_bound(model.m, mult, target)
            _require(count == expected,
                     f"{count} spanning trees, Nash-Williams count is {expected}")
        else:
            _require(count <= tree_bound(model.m, mult, target),
                     "more Steiner trees than the partition bound allows")

    def _simulate(self, request, model, doc) -> None:
        self._pack(request, model, doc)
        _require(doc.get("seed") == request.key_seed, "wrong key seed echoed")
        _require(doc.get("security_index") == "0", "security index is not 0")
        _require(doc.get("audit_passed") is True, "audit did not pass")
        _require(doc.get("recovered") == [{"terminal": t, "ok": True}
                                          for t in request.target],
                 "not every terminal recovered the key")
        total = doc["edge_total"]
        method = "rank+bruteforce" if total <= BRUTEFORCE_EDGE_CAP else "rank"
        _require(doc.get("audit_method") == method, "wrong audit method")
        trees = doc["trees"]
        _require(doc.get("key_bits") == len(trees), "key_bits != tree_count")
        _require(doc.get("key_bits") + doc.get("transcript_bits")
                 + doc.get("residual_bits") == total,
                 "|K| + |F| + |K_R| != edge_total")
        # canonical edge numbering: sorted pair, then copy
        scale = doc["scale"]
        offset, index = 0, {}
        for pair, w in sorted(model.weights.items()):
            index[pair] = offset
            offset += int(w * scale)
        number = {(i, j, c): index[(i, j)] + c
                  for tree in trees for (i, j, c) in tree}
        edge_of = {k: edge for edge, k in number.items()}
        transcript = doc.get("transcript")
        _require(isinstance(transcript, list)
                 and len(transcript) == doc.get("transcript_bits"),
                 "transcript length differs from transcript_bits")
        expected = {k: {number[tuple(e)] for e in tree}
                    for k, tree in enumerate(trees)}
        for k, tree in enumerate(trees):
            reference = number[tuple(min(map(tuple, tree)))]
            expected[k].discard(reference)
            expected[k] = (reference, expected[k])
        sent = {k: set() for k in expected}
        for b in transcript:
            k = b.get("tree")
            _require(k in expected and b.get("bit") in (0, 1),
                     f"malformed broadcast {b!r}")
            reference, rest = expected[k]
            ref, edge = b.get("support", (None, None))
            _require(ref == reference and edge in rest and edge not in sent[k],
                     f"broadcast support {b.get('support')} is not "
                     f"(reference edge, fresh edge of tree {k})")
            _require(b.get("terminal") in edge_of[edge][:2],
                     "broadcast sender is not an endpoint of its edge")
            sent[k].add(edge)
        _require(all(sent[k] == expected[k][1] for k in expected),
                 "some tree edge was never propagated")


def _is_tree(edges, vertices) -> bool:
    if len(vertices) != len(edges) + 1:
        return False
    adjacency = {v: [] for v in vertices}
    for i, j, _ in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    start = next(iter(vertices))
    seen, stack = {start}, [start]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices
