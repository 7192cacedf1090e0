"""Byte identity of text-mode ``pack`` and ``simulate`` output.

``test_output_digests.py`` pins structured output on the benchmark pools;
these cases pin the human-readable lines, which are rendered separately.
The two-terminal model packs paths several copies deep, and the triangle
at scale 2 is the doubled triangle of three spanning trees.  Each digest
is the SHA-256 of the exit code and stdout, as in the pool digests.
"""

import contextlib
import hashlib
import io
import json

import pytest

from pinkey.cli import main

# paths 1-4 (one copy), 1-2-4 (two copies) and 1-3-4 (one copy) at scale 1
FOUR_MODEL = {"terminals": 4, "weights": [
    {"i": 1, "j": 2, "value": 3}, {"i": 2, "j": 4, "value": 2},
    {"i": 1, "j": 3, "value": 1}, {"i": 3, "j": 4, "value": 2},
    {"i": 1, "j": 4, "value": 1}]}
TRIANGLE_MODEL = {"terminals": 3, "weights": [
    {"i": 1, "j": 2, "value": 1}, {"i": 1, "j": 3, "value": 1},
    {"i": 2, "j": 3, "value": 1}]}

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
}

DIGESTS = {
    "pack_doubled_triangle": "06a7b317e7f65ed6",
    "pack_greedy": "25e3bd097b45b421",
    "pack_paths": "caa6cdd20b2bb484",
    "pack_paths_scale_3": "180d7693d8b16bef",
    "simulate_doubled_triangle": "1202e109e10b415e",
    "simulate_exact": "e52ca8bd0a5122a7",
    "simulate_paths": "772896bb60b46da3",
    "simulate_paths_scale_3": "53b35dbffa7462a9",
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
