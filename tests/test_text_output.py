"""Byte identity of every command's text-mode output.

``test_output_digests.py`` pins structured output on the benchmark pools;
these cases pin the human-readable lines, which are rendered separately.
The four-terminal model packs paths several copies deep, the triangle at
scale 2 is the doubled triangle of three spanning trees, and the pair of
weight 1000 packs one group of 1000 copies.  The ``capacity`` cases cover
a full set, an intermediate set and a model whose LP vertex is not
partition-shaped, so the bound comes from the partition search.  Each
digest is the SHA-256 of the exit code and stdout, as in the pool digests.
"""

import contextlib
import hashlib
import io
import json

import pytest

from pinkey import TerminalSet, solve_capacity
from pinkey.capacity import certified_bound
from pinkey.cli import main
from pinkey.modelfile import loads_model

# paths 1-4 (one copy), 1-2-4 (two copies) and 1-3-4 (one copy) at scale 1
FOUR_MODEL = {"terminals": 4, "weights": [
    {"i": 1, "j": 2, "value": 3}, {"i": 2, "j": 4, "value": 2},
    {"i": 1, "j": 3, "value": 1}, {"i": 3, "j": 4, "value": 2},
    {"i": 1, "j": 4, "value": 1}]}
TRIANGLE_MODEL = {"terminals": 3, "weights": [
    {"i": 1, "j": 2, "value": 1}, {"i": 1, "j": 3, "value": 1},
    {"i": 2, "j": 3, "value": 1}]}
PAIR_MODEL = {"terminals": 2, "weights": [{"i": 1, "j": 2, "value": 1000}]}
# with A = {1, 3}, 300 copies of the path 1-2-3, one broadcast each
PATH_MODEL = {"terminals": 3, "weights": [
    {"i": 1, "j": 2, "value": 300}, {"i": 2, "j": 3, "value": 300}]}
# float mode: one correlated pair and one independent pair
PMF_MODEL = {"terminals": 3, "pmfs": [
    {"i": 1, "j": 2, "rows": 2, "cols": 2, "probs": [0.5, 0, 0, 0.5]},
    {"i": 2, "j": 3, "rows": 2, "cols": 2, "probs": [0.25, 0.25, 0.25, 0.25]}]}
# model 15 of the seed-8 ``analyze`` pool: at A = {4, 5} the optimal vertex
# does not certify the bound
FALLBACK_MODEL = {"terminals": 6, "weights": [
    {"i": 1, "j": 4, "value": "5/4"}, {"i": 1, "j": 5, "value": 3},
    {"i": 1, "j": 6, "value": "1/2"}, {"i": 2, "j": 4, "value": 4},
    {"i": 2, "j": 5, "value": "5/4"}, {"i": 5, "j": 6, "value": "4/3"}]}

CASES = {
    "pack_paths": (FOUR_MODEL, ["pack", "--set", "1,4"]),
    "pack_paths_scale_3": (FOUR_MODEL, ["pack", "--set", "1,4", "--scale", "3"]),
    "simulate_paths": (FOUR_MODEL, ["simulate", "--set", "1,4", "--seed", "3"]),
    "simulate_paths_scale_3": (FOUR_MODEL, ["simulate", "--set", "4,1", "--scale", "3",
                                            "--seed", "11"]),
    "pack_greedy": (FOUR_MODEL, ["pack", "--set", "1,2,4", "--mode", "greedy",
                                 "--scale", "2"]),
    "simulate_exact": (FOUR_MODEL, ["simulate", "--set", "1,2,4", "--seed", "7"]),
    "pack_doubled_triangle": (TRIANGLE_MODEL, ["pack", "--scale", "2"]),
    "simulate_doubled_triangle": (TRIANGLE_MODEL, ["simulate", "--scale", "2",
                                                   "--seed", "5"]),
    "pack_pair_deep": (PAIR_MODEL, ["pack"]),
    "simulate_pair_deep": (PAIR_MODEL, ["simulate", "--seed", "9"]),
    "simulate_path_deep": (PATH_MODEL, ["simulate", "--set", "1,3", "--seed", "4"]),
    "upper_bound_paths": (FOUR_MODEL, ["upper-bound", "--set", "1,2,4"]),
    "upper_bound_triangle": (TRIANGLE_MODEL, ["upper-bound"]),
    "validate_exact": (FOUR_MODEL, ["validate"]),
    "validate_pmfs": (PMF_MODEL, ["validate"]),
    "capacity_full": (FOUR_MODEL, ["capacity"]),
    "capacity_intermediate": (FOUR_MODEL, ["capacity", "--set", "1,2,4"]),
    "capacity_fallback": (FALLBACK_MODEL, ["capacity", "--set", "4,5"]),
}

DIGESTS = {
    "capacity_fallback": "b70014d38f53c0eb",
    "capacity_full": "b42478660db4e21a",
    "capacity_intermediate": "a2aabb693c9601ee",
    "pack_doubled_triangle": "06a7b317e7f65ed6",
    "pack_greedy": "25e3bd097b45b421",
    "pack_pair_deep": "3fdb63fd5cf6e618",
    "pack_paths": "caa6cdd20b2bb484",
    "pack_paths_scale_3": "180d7693d8b16bef",
    "simulate_doubled_triangle": "1202e109e10b415e",
    "simulate_exact": "e52ca8bd0a5122a7",
    "simulate_pair_deep": "c24d4fb42dea3329",
    "simulate_path_deep": "88595da588cf92c5",
    "simulate_paths": "772896bb60b46da3",
    "simulate_paths_scale_3": "53b35dbffa7462a9",
    "upper_bound_paths": "9c364e7a8c6789b2",
    "upper_bound_triangle": "27ffb89971e6c2ca",
    "validate_exact": "d79145aa1490eef1",
    "validate_pmfs": "9680a3bd766afc1b",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_text_output_digest(tmp_path, case):
    model, argv = CASES[case]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], str(path)] + argv[1:])
    digest = hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()[:16]
    assert digest == DIGESTS[case], out.getvalue()


def test_fallback_case_runs_the_partition_search():
    model = loads_model(json.dumps(FALLBACK_MODEL))
    assert certified_bound(model, solve_capacity(model, TerminalSet.of(4, 5))) is None
