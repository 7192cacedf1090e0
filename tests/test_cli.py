import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pinkey.packing
import pinkey.partitions
import pinkey.cli
from pinkey.cli import _COMMANDS, _fast_args, build_parser, main
from pinkey.model import MAX_TERMINALS
from pinkey.packing import STEINER_EXACT_EDGE_CAP
from pinkey.value import replace

from helpers import AUDIT_MODULE, json_dumps_report, load_workloads

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).parent / "goldens"
TRIANGLE = str(GOLDENS / "triangle_model.json")
PATH_MODEL = str(GOLDENS / "path_model.json")
STAR = str(GOLDENS / "star_model.json")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCapacityCommand:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", TRIANGLE)
        assert code == 0
        assert "capacity C(A) = 3/2" in out
        assert "tight" in out

    def test_structured_golden(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", TRIANGLE, "--format", "structured")
        assert code == 0
        assert out == (GOLDENS / "triangle_capacity.json").read_text()
        doc = json.loads(out)
        assert doc["capacity"] == "3/2"
        assert doc["upper_bound"] == "3/2"
        assert doc["tight"] is True
        assert doc["format_version"] == 1

    @pytest.mark.parametrize(
        "model,extra,golden,value",
        [
            (PATH_MODEL, ("--set", "1,3"), "path_capacity_pair.json", "1"),
            (PATH_MODEL, (), "path_capacity_full.json", "1"),
            (STAR, (), "star_capacity.json", "1"),
        ],
    )
    def test_worked_examples(self, capsys, model, extra, golden, value):
        code, out, _ = run_cli(
            capsys, "capacity", model, *extra, "--format", "structured"
        )
        assert code == 0
        assert out == (GOLDENS / golden).read_text()
        assert json.loads(out)["capacity"] == value

    def test_a_bound_above_the_capacity_is_not_tight(self, capsys, monkeypatch):
        # an intermediate set may leave a gap between C and the bound: with
        # the bound patched to C + 1, neither output may call it tight
        monkeypatch.setattr(pinkey.cli, "certified_bound",
                            lambda model, result: result.value + 1)
        code, out, _ = run_cli(capsys, "capacity", STAR, "--set", "1,2,3")
        assert code == 0
        assert out.startswith("capacity C(A) = 1\nupper bound   = 2\noptimal subset weights:\n")
        code, out, _ = run_cli(capsys, "capacity", STAR, "--set", "1,2,3",
                               "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert (doc["capacity"], doc["upper_bound"], doc["tight"]) == ("1", "2", False)
        assert '"tight":false' in out

    def test_single_terminal_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "capacity", TRIANGLE, "--set", "1")
        assert code == 2
        assert "two terminals" in err

    def test_bad_set_spec(self, capsys):
        code, _, err = run_cli(capsys, "capacity", TRIANGLE, "--set", "1,x")
        assert code == 2

    def test_out_of_range_set(self, capsys):
        code, _, err = run_cli(capsys, "capacity", TRIANGLE, "--set", "1,7")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "capacity", "/nonexistent.json")
        assert code == 2

    def test_directory_as_model(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "capacity", str(tmp_path))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, _, err = run_cli(capsys, "capacity", str(path))
        assert code == 2
        assert err.startswith("error: not valid JSON") and err.count("\n") == 1

    def test_size_limit_exit_code(self, capsys, tmp_path):
        doc = {"terminals": 13, "weights": [{"i": 1, "j": 2, "value": 1}]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "capacity", str(path))
        assert code == 3
        assert "cap" in err

    def test_size_limit_message_names_the_cap(self, capsys, tmp_path):
        path = _integer_model_file(tmp_path, 13, {(1, 2): 1})
        code, out, err = run_cli(capsys, "capacity", path)
        assert (code, out) == (3, "")
        assert err == "error: m=13 exceeds the subset-enumeration cap 12\n"

    def test_simplex_disagreement_is_internal_error(self, capsys, monkeypatch):
        import pinkey.capacity as capacity_module

        real_solve_lp = capacity_module.solve_lp

        def objective_off_by_one(*args):
            result = real_solve_lp(*args)
            return replace(result, objective=result.objective + 1)

        monkeypatch.setattr(capacity_module, "solve_lp", objective_off_by_one)
        code, out, err = run_cli(capsys, "capacity", TRIANGLE)
        assert code == 1
        assert out == ""
        assert err.startswith("internal error: ArithmeticError: simplex value")
        assert err.count("\n") == 1


    def test_capacity_bound_disagreement_is_internal_error(self, capsys,
                                                           monkeypatch, tmp_path):
        # one pair (2, 3) with A = {2, 3}: Bland's vertex is the three
        # singletons, whose complements overlap, so the vertex certifies no
        # bound and the searched one is cross-checked
        import pinkey.cli as cli_module

        path = tmp_path / "one_pair.json"
        path.write_text(json.dumps({"terminals": 3,
                                    "weights": [{"i": 2, "j": 3, "value": 1}]}))
        real_best_partition = cli_module.best_partition

        def off_by_a_seventh(*args):
            bound, partition = real_best_partition(*args)
            return bound + Fraction(1, 7), partition

        monkeypatch.setattr(cli_module, "best_partition", off_by_a_seventh)
        code, out, err = run_cli(capsys, "capacity", str(path), "--set", "2,3")
        assert code == 1
        assert out == ""
        assert err.startswith("internal error: ArithmeticError: capacity")
        assert err.count("\n") == 1

    def test_certified_capacity_runs_no_partition_search(self, capsys, monkeypatch):
        # the triangle's vertex is the co-atoms of the all-singletons
        # partition, whose ratio 3/2 is the capacity: the bound needs no search
        import pinkey.cli as cli_module

        def no_search(*args):
            raise RuntimeError("best_partition was called")

        monkeypatch.setattr(cli_module, "best_partition", no_search)
        code, out, _ = run_cli(capsys, "capacity", TRIANGLE, "--format", "structured")
        assert code == 0
        assert out == (GOLDENS / "triangle_capacity.json").read_text()

    def test_bad_simplex_solution_is_internal_error(self, capsys, monkeypatch):
        import pinkey.capacity as capacity_module

        real_solve_lp = capacity_module.solve_lp

        def basic_value_off_by_one(*args):
            result = real_solve_lp(*args)
            beta = list(result.beta)
            beta[0] += 1
            return replace(result, beta=tuple(beta))

        monkeypatch.setattr(capacity_module, "solve_lp", basic_value_off_by_one)
        code, out, err = run_cli(capsys, "capacity", TRIANGLE)
        assert code == 1
        assert out == ""
        assert err.startswith("internal error: InvalidAssignmentError: weights")
        assert err.count("\n") == 1


class TestTerminalCap:
    """A model stores all m(m-1)/2 pairs, so m is capped at parse time."""

    @pytest.mark.parametrize("command", ["validate", "upper-bound"])
    def test_huge_terminal_count_is_size_limit(self, capsys, tmp_path, command):
        path = tmp_path / "huge.json"
        path.write_text('{"terminals": 99999999999, "weights": []}')
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, str(path))
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert out == ""
        assert f"MAX_TERMINALS={MAX_TERMINALS}" in err
        assert err.count("\n") == 1

    def test_model_at_the_cap_validates(self, capsys, tmp_path):
        path = tmp_path / "cap.json"
        path.write_text(json.dumps({
            "terminals": MAX_TERMINALS,
            "weights": [{"i": 1, "j": MAX_TERMINALS, "value": "1/2"}],
        }))
        code, out, _ = run_cli(capsys, "validate", str(path), "--format",
                               "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["terminals"] == MAX_TERMINALS
        assert doc["pairs_nonzero"] == 1


class TestUpperBoundCommand:
    def test_triangle(self, capsys):
        code, out, _ = run_cli(
            capsys, "upper-bound", TRIANGLE, "--format", "structured"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["upper_bound"] == "3/2"
        assert doc["minimizing_partition"] == [[1], [2], [3]]


class TestPackCommand:
    def test_triangle_scale_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "pack", TRIANGLE, "--scale", "2", "--format", "structured"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tree_count"] == 3
        assert doc["rate"] == "3/2"
        assert len(doc["trees"]) == 3

    def test_default_scale_is_base(self, capsys):
        code, out, _ = run_cli(capsys, "pack", TRIANGLE, "--format", "structured")
        assert code == 0
        assert json.loads(out)["scale"] == 1

    def test_exact_steiner_on_a_long_unit_path(self, capsys, tmp_path):
        path = _integer_model_file(tmp_path, 20, {(i, i + 1): 1 for i in range(1, 20)})
        code, out, _ = run_cli(capsys, "pack", path, "--set", "1,2,3",
                               "--format", "structured")
        assert code == 0
        assert json.loads(out)["tree_count"] == 1

    def test_invalid_scale(self, capsys, tmp_path):
        doc = {"terminals": 2, "weights": [{"i": 1, "j": 2, "value": "3/2"}]}
        path = tmp_path / "half.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "pack", str(path), "--scale", "3")
        assert code == 2
        assert "base scale" in err


class TestSimulateCommand:
    def test_structured_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", TRIANGLE, "--scale", "2", "--seed", "0",
            "--format", "structured",
        )
        assert code == 0
        assert out == (GOLDENS / "triangle_simulate.json").read_text()
        doc = json.loads(out)
        assert doc["security_index"] == "0"
        assert doc["audit_passed"] is True
        assert doc["key_bits"] == 3
        assert doc["key_bits"] + doc["transcript_bits"] + doc["residual_bits"] \
            == doc["edge_total"]

    def test_seed_repeat_is_byte_identical(self, capsys):
        args = ("simulate", PATH_MODEL, "--set", "1,3", "--seed", "9",
                "--format", "structured")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("flag", [("--seed", "-5"), ("--seed=-5",)])
    def test_negative_seed_is_usage_error(self, capsys, flag):
        # Random(-5) seeds as Random(5): the run would repeat seed 5's
        code, out, err = run_cli(capsys, "simulate", TRIANGLE, "--scale", "4", *flag)
        assert (code, out) == (2, "")
        assert err == "error: edge-key seed must be non-negative, got -5\n"

    def test_negative_seed_is_refused_before_packing(self, capsys, monkeypatch, tmp_path):
        import pinkey.cli as cli_module

        def refuse(*args, **kwargs):
            raise AssertionError("packed before the seed was checked")

        monkeypatch.setattr(cli_module, "steiner_packing", refuse)
        # the second model is past the packing edge cap: the seed goes first
        for path in (TRIANGLE, _integer_model_file(tmp_path, 2, {(1, 2): 10**8})):
            code, out, err = run_cli(capsys, "simulate", path, "--seed", "-1")
            assert (code, out) == (2, "")
            assert err == "error: edge-key seed must be non-negative, got -1\n"

    def test_text_output_contains_transcript(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", PATH_MODEL, "--set", "1,3")
        assert code == 0
        assert "security index s = 0" in out
        assert "seed 0" in out
        assert "recovery: 1:ok 3:ok" in out

    def test_audit_failure_exit_code(self, capsys, monkeypatch):
        import pinkey.cli as cli_module

        real_audit = cli_module.audit

        def failing_audit(run, **kwargs):
            report = real_audit(run, **kwargs)
            recoverability = dict(report.recoverability)
            recoverability[min(recoverability)] = False
            return replace(report, recoverability=recoverability)

        monkeypatch.setattr(cli_module, "audit", failing_audit)
        code, out, err = run_cli(
            capsys, "simulate", TRIANGLE, "--format", "structured"
        )
        assert code == 4
        assert "audit failed" in err
        assert json.loads(out)["audit_passed"] is False


class TestTextRenderingOnDemand:
    def test_structured_output_never_renders_the_transcript(self, capsys,
                                                             monkeypatch):
        import pinkey.cli as cli_module

        def refuse(run):
            raise AssertionError("transcript rendered")

        monkeypatch.setattr(cli_module, "export_transcript", refuse)
        for command in ("pack", "simulate"):
            code, out, err = run_cli(capsys, command, TRIANGLE, "--format", "structured")
            assert (code, err) == (0, "")
            assert json.loads(out)["command"] == command
        monkeypatch.undo()
        code, out, _ = run_cli(capsys, "simulate", TRIANGLE)
        assert code == 0
        assert "  broadcast tree=0 " in out


def _integer_model_file(directory, m, weights) -> str:
    """A model file whose pair weights are the given integers (0 omitted)."""
    path = Path(directory) / f"model_{len(os.listdir(directory))}.json"
    path.write_text(json.dumps({"terminals": m, "weights": [
        {"i": i, "j": j, "value": w} for (i, j), w in sorted(weights.items()) if w]}))
    return str(path)


def _structured(command, path, members, mode, seed):
    argv = [command, path, "--mode", mode, "--format", "structured"]
    if members:
        argv += ["--set", ",".join(map(str, members))]
    if command == "simulate":
        argv += ["--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


class TestStructuredRenderingAgainstOracle:
    """``trees`` and ``transcript`` are rendered from the groups and the
    transcript columns; the bytes must be those of the one-dict,
    one-``json.dumps`` report in ``helpers.json_dumps_report``."""

    ROUTES = ("paths", "spanning", "exact", "greedy")

    @staticmethod
    def members(route, m, rng):
        if route == "paths":
            return sorted(rng.sample(range(1, m + 1), 2))
        if route == "spanning":
            return None
        return sorted(rng.sample(range(1, m + 1), rng.randint(3, m - 1)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(ROUTES))
    @example(3241, "exact")  # 25 edges as drawn
    def test_pack_and_simulate_match_the_oracle(self, tmp_path_factory, seed, route):
        rng = random.Random(seed)
        m = rng.randint(2, 5) if route in ("paths", "spanning") else rng.randint(4, 5)
        # zero weights can disconnect the target and leave no tree at all;
        # an m = 5 draw can pass the exact Steiner cap (up to 30 edges), so
        # edges come off drawn pairs until it is met
        weights = {(i, j): rng.choice((0, 0, 1, 1, 2, 3))
                   for i in range(1, m + 1) for j in range(i + 1, m + 1)}
        while sum(weights.values()) > STEINER_EXACT_EDGE_CAP:
            weights[rng.choice([pair for pair, w in weights.items() if w])] -= 1
        members = self.members(route, m, rng)
        mode = "greedy" if route == "greedy" else "exact"
        path = _integer_model_file(tmp_path_factory.mktemp("models"), m, weights)
        for command in ("pack", "simulate"):
            code, out = _structured(command, path, members, mode, seed)
            assert code == 0
            assert out == json_dumps_report(command, path, members, mode=mode, seed=seed)

    @pytest.mark.parametrize("name, m, weights, members, mode, shape", [
        # disconnected target: zero trees, an empty transcript
        ("no_tree", 4, {(1, 2): 2, (3, 4): 3}, (1, 4), "exact", "0 trees"),
        ("no_spanning_tree", 3, {(1, 2): 3}, None, "exact", "0 trees"),
        # direct edges only: single-edge trees, no broadcasts
        ("single_edges", 2, {(1, 2): 4}, None, "exact", "no broadcasts"),
        ("direct_pair", 3, {(1, 3): 3}, (1, 3), "exact", "no broadcasts"),
        # groups of several copies that broadcast
        ("path_copies", 3, {(1, 2): 4, (2, 3): 3}, (1, 3), "exact", "copies"),
        ("spanning_copies", 4, {(i, j): 4 for i in range(1, 5) for j in range(i + 1, 5)},
         None, "exact", "copies"),
        ("greedy_copies", 4, {(1, 2): 4, (2, 4): 4, (1, 3): 2, (3, 4): 4, (1, 4): 2},
         (1, 2, 4), "greedy", "copies"),
    ])
    def test_edge_shapes_match_the_oracle(self, tmp_path, name, m, weights, members,
                                          mode, shape):
        path = _integer_model_file(tmp_path, m, weights)
        for command in ("pack", "simulate"):
            code, out = _structured(command, path, members, mode, 7)
            assert code == 0
            assert out == json_dumps_report(command, path, members, mode=mode, seed=7)
        doc = json.loads(out)
        if shape == "0 trees":
            assert doc["trees"] == doc["transcript"] == []
        elif shape == "no broadcasts":
            assert doc["tree_count"] > 1 and doc["transcript"] == []
            assert all(len(tree) == 1 for tree in doc["trees"])
        else:
            assert doc["transcript"]
            assert doc["tree_count"] > len({tuple(tuple(p[:2]) for p in tree)
                                            for tree in doc["trees"]})


class TestPackCommandFaults:
    def test_repeated_tree_is_internal_error(self, capsys, monkeypatch):
        import pinkey.cli as cli_module
        from pinkey import TreePacking

        real_steiner_packing = cli_module.steiner_packing

        def repeat_first_tree(graph, target, **kwargs):
            packing = real_steiner_packing(graph, target, **kwargs)
            return TreePacking(graph, target, packing.groups + packing.groups[:1])

        monkeypatch.setattr(cli_module, "steiner_packing", repeat_first_tree)
        code, out, err = run_cli(capsys, "pack", TRIANGLE)
        assert code == 1
        assert out == ""
        assert err == "internal error: InvalidPackingError: edge (1, 2, 0) used twice\n"


class TestSpanningWorkCap:
    """Spanning packing costs about k * |E|; tiny files can ask for 10^10."""

    MODELS = {
        "integer": {"terminals": 3, "weights": [
            {"i": 1, "j": 2, "value": 50000}, {"i": 2, "j": 3, "value": 49999}]},
        "rational": {"terminals": 3, "weights": [
            {"i": 1, "j": 2, "value": "1/100003"},
            {"i": 2, "j": 3, "value": "1/99991"}]},
    }

    @pytest.mark.parametrize("command", ["pack", "simulate"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_huge_spanning_work_is_size_limit(self, capsys, tmp_path, command,
                                              model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.MODELS[model]))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, str(path))
        assert time.perf_counter() - start < 2
        assert code == 3
        assert out == ""
        assert err.startswith("error: spanning packing is capped at k*|E|")
        assert err.count("\n") == 1


class TestSpanningAboveThePartitionCap:
    """With A = M the packing proves its own count when the degree bound
    b = min(least degree, floor(|E| / (m - 1))) is met, or when b = 0, so
    past the partition search's 12 terminals only the other graphs exit 3."""

    @staticmethod
    def dense_m20(directory) -> str:
        # the ladder's spanning/dense_m20: randint(0, 6) per pair, row-major
        rng = random.Random(20)
        pairs = itertools.combinations(range(1, 21), 2)
        return _integer_model_file(directory, 20, {pair: rng.randint(0, 6) for pair in pairs})

    @pytest.mark.parametrize("command", ["pack", "simulate"])
    def test_dense_m20_packs_its_degree_bound(self, capsys, tmp_path, command):
        path = self.dense_m20(tmp_path)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, path, "--format", "structured")
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["edge_total"], doc["tree_count"]) == (519, 27)
        assert doc.get("audit_passed", True) is True

    @pytest.mark.parametrize("command", ["pack", "simulate"])
    def test_isolated_terminal_packs_nothing(self, capsys, tmp_path, command):
        # terminal 13 meets no edge: b = 0
        pairs = itertools.combinations(range(1, 13), 2)
        path = _integer_model_file(tmp_path, 13, dict.fromkeys(pairs, 1))
        code, out, err = run_cli(capsys, command, path, "--format", "structured")
        assert (code, err) == (0, "")
        assert json.loads(out)["tree_count"] == 0

    @pytest.mark.parametrize("command", ["pack", "simulate"])
    def test_bridged_m14_still_needs_the_partition_count(self, capsys, tmp_path,
                                                          command):
        # two K7 of weight 2 joined by one edge: b = 6 trees, in fact 1
        weights = {(i + side, j + side): 2 for side in (0, 7)
                   for i, j in itertools.combinations(range(1, 8), 2)}
        path = _integer_model_file(tmp_path, 14, weights | {(7, 8): 1})
        code, out, err = run_cli(capsys, command, path)
        assert (code, out) == (3, "")
        assert err == "error: m=14 exceeds the partition-enumeration cap 12\n"


class TestExactSteinerRobustness:
    """Exact Steiner packing under the edge cap on a 16-terminal model whose
    greedy incumbent is not optimal: the bound's flows and reduced graph
    keep the search short."""

    PAIRS = ((1, 14), (1, 15), (2, 7), (2, 11), (3, 10), (3, 16), (4, 10), (4, 15),
             (5, 7), (5, 11), (6, 7), (6, 13), (7, 9), (7, 14), (7, 16), (8, 9),
             (8, 14), (9, 15), (10, 13), (10, 16), (11, 13), (11, 16), (12, 16), (14, 16))

    def test_sixteen_terminal_model_packs_quickly(self, capsys, tmp_path):
        path = _integer_model_file(tmp_path, 16, dict.fromkeys(self.PAIRS, 1))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "pack", path, "--set", "6,8,9,10,13,14,16",
                                 "--format", "structured")
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["edge_total"], doc["tree_count"]) == (24, 2)


class TestPackingEdgeCap:
    """Every packing route builds one tree per packed copy; tiny files can
    ask for 10^8 edges."""

    MODELS = {
        "pair": {"terminals": 2, "weights": [{"i": 1, "j": 2, "value": 100000000}]},
        "path": {"terminals": 3, "weights": [
            {"i": 1, "j": 2, "value": 3000000}, {"i": 2, "j": 3, "value": 3000000}]},
    }

    @pytest.mark.parametrize("command", ["pack", "simulate"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_huge_edge_count_is_size_limit(self, capsys, tmp_path, command, model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.MODELS[model]))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, str(path), "--set", "1,2")
        assert time.perf_counter() - start < 2
        assert code == 3
        assert out == ""
        assert err.startswith("error: tree packing is capped at |E| = ")
        assert err.count("\n") == 1


class TestPatchedCapsReachTheCommands:
    """Each size cap is one module constant, read when its check runs, so
    setting it moves the limit the commands apply."""

    def test_steiner_edge_cap(self, capsys, monkeypatch, tmp_path):
        weights = {(1, 2): 3, (1, 3): 3, (1, 4): 2, (1, 5): 2, (2, 3): 3,
                   (2, 4): 2, (2, 5): 3, (3, 4): 2, (3, 5): 3, (4, 5): 2}
        path = _integer_model_file(tmp_path, 5, weights)
        argv = ("pack", path, "--set", "1,2,3", "--format", "structured")
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (3, "error: exact Steiner packing is capped at 24 edges; "
                                  "this graph has 25 (use greedy mode)\n")
        monkeypatch.setattr(pinkey.packing, "STEINER_EXACT_EDGE_CAP", 30)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["edge_total"], doc["tree_count"]) == (25, 9)

    def test_bruteforce_edge_cap(self, capsys, monkeypatch, tmp_path):
        # K3 x 7: 21 edges, one over the default cap
        path = _integer_model_file(tmp_path, 3, {(1, 2): 7, (1, 3): 7, (2, 3): 7})
        argv = ("simulate", path, "--format", "structured")
        code, out, _ = run_cli(capsys, *argv)
        assert (code, json.loads(out)["audit_method"]) == (0, "rank")
        monkeypatch.setattr(AUDIT_MODULE, "BRUTEFORCE_EDGE_CAP", 21)
        code, out, _ = run_cli(capsys, *argv)
        doc = json.loads(out)
        assert (code, doc["edge_total"], doc["audit_method"]) == (0, 21, "rank+bruteforce")
        assert doc["audit_passed"] is True

    @pytest.mark.parametrize("command", ["capacity", "upper-bound"])
    def test_terminal_cap(self, capsys, monkeypatch, tmp_path, command):
        path = _integer_model_file(tmp_path, 13, {(1, 2): 1})
        code, _, _ = run_cli(capsys, command, path, "--set", "1,2")
        assert code == 3
        monkeypatch.setattr(pinkey.partitions, "TERMINAL_CAP", 13)
        code, out, err = run_cli(capsys, command, path, "--set", "1,2",
                                 "--format", "structured")
        assert (code, err) == (0, "")
        assert json.loads(out)["upper_bound"] == "1"


class TestPathPipelineMemory:
    """The protocol maps and the rank audit stay linear in |E|: a 100k-edge
    path under ``simulate --set 1,3`` once peaked at about 1.4 GB."""

    def test_100k_edge_path_simulate_stays_small(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"terminals": 3, "weights": [
            {"i": 1, "j": 2, "value": 50000}, {"i": 2, "j": 3, "value": 50000}]}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c",
             "import resource, sys\n"
             "from pinkey.cli import main\n"
             "code = main()\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
             "sys.exit(code)",
             "simulate", str(path), "--set", "1,3"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)
        assert child.returncode == 0, child.stderr
        assert int(child.stderr.split()[-1]) < 400 * 1024  # kilobytes on Linux


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv,code", [
        (["capacity", TRIANGLE, "--format", "structured"], 0),
        (["capacity", TRIANGLE, "--set", "1,x"], 2),
    ])
    def test_python_dash_m_pinkey_exits_with_mains_code(self, argv, code):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        child = subprocess.run([sys.executable, "-m", "pinkey", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert child.returncode == code, child.stderr
        if code == 0:
            assert child.stdout == (GOLDENS / "triangle_capacity.json").read_text()
        else:
            assert child.stdout == "" and child.stderr.startswith("error:")


class TestValidateCommand:
    def test_valid_model(self, capsys):
        code, out, _ = run_cli(capsys, "validate", TRIANGLE, "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["exact"] is True
        assert doc["base_scale"] == 1

    @pytest.mark.parametrize("structured", [True, False])
    def test_underflowing_weight_counts_as_correlated(self, capsys, tmp_path,
                                                      structured):
        # 1/10^400 is 0.0 as a float, but it is a nonzero weight
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"terminals": 3, "weights": [
            {"i": 1, "j": 2, "value": "1/1" + "0" * 400}, {"i": 2, "j": 3, "value": 1}]}))
        argv = ["validate", str(path)] + (["--format", "structured"] if structured else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        if structured:
            assert json.loads(out)["pairs_nonzero"] == 2
        else:
            assert "2 correlated pairs" in out

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"terminals": 2, "weights": [], "color": "red"}')
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "unknown" in err

    def test_float_mode_model(self, capsys, tmp_path):
        path = tmp_path / "pmf.json"
        path.write_text(
            '{"terminals": 2, "pmfs": [{"i": 1, "j": 2, "rows": 2, "cols": 2,'
            ' "probs": [0.5, 0.0, 0.0, 0.5]}]}'
        )
        code, out, _ = run_cli(capsys, "validate", str(path), "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is False
        assert "base_scale" not in doc

    def test_nan_probability_rejected(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"terminals": 2, "pmfs": [{"i": 1, "j": 2, "rows": 1, "cols": 2,'
            ' "probs": [NaN, 1.0]}]}'
        )
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("command", ["validate", "upper-bound"])
    @pytest.mark.parametrize("probs", [f"[1{'0' * 400}, 0]", f"[0, -1{'0' * 400}]"],
                             ids=["huge", "huge_negative"])
    def test_probability_too_large_for_a_float_rejected(self, capsys, tmp_path,
                                                         command, probs):
        path = tmp_path / "huge.json"
        path.write_text('{"terminals": 2, "pmfs": [{"i": 1, "j": 2, "rows": 1,'
                        f' "cols": 2, "probs": {probs}}}]}}')
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "too large for a float" in err

    @pytest.mark.parametrize("value", ["1_0", "\u0663/\u0662", " 3 ", "+3", "3/ 2"])
    def test_lenient_rational_rejected(self, capsys, tmp_path, value):
        path = tmp_path / "lenient.json"
        path.write_text(json.dumps(
            {"terminals": 2, "weights": [{"i": 1, "j": 2, "value": value}]}))
        code, out, err = run_cli(capsys, "capacity", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "malformed rational" in err

    def test_float_mode_capacity_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "pmf.json"
        path.write_text(
            '{"terminals": 2, "pmfs": [{"i": 1, "j": 2, "rows": 1, "cols": 1,'
            ' "probs": [1.0]}]}'
        )
        code, _, err = run_cli(capsys, "capacity", str(path))
        assert code == 2
        assert "exact" in err

    @pytest.mark.parametrize("argv, operation", [
        (["capacity"], "capacity LP"),
        (["capacity", "--set", "1,3"], "capacity LP"),
        (["upper-bound"], "partition bound"),
        (["pack"], "base scale"),
        (["pack", "--scale", "2"], "multigraph realization"),
        (["simulate"], "base scale"),
        (["simulate", "--scale", "2"], "multigraph realization"),
    ])
    def test_float_mode_refusals(self, capsys, tmp_path, argv, operation):
        path = tmp_path / "pmf.json"
        path.write_text(
            '{"terminals": 3, "pmfs": [{"i": 1, "j": 2, "rows": 2, "cols": 2,'
            ' "probs": [0.5, 0.0, 0.0, 0.5]}]}'
        )
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err == (f"error: {operation} needs exact rational weights; "
                       "this model is float-mode (pmf-backed)\n")

    @pytest.mark.parametrize("argv", [
        ["validate"], ["capacity"], ["capacity", "--set", "1,3"], ["upper-bound"],
        ["pack"], ["pack", "--scale", "12", "--set", "2,3"], ["simulate"],
        ["simulate", "--format", "structured"]])
    def test_exact_model_runs_build_no_fraction_table(self, capsys, monkeypatch,
                                                      tmp_path, argv):
        # the commands read the integer form; the Fraction table is built
        # only when a caller reads ``weights``
        path = tmp_path / "thirds.json"
        path.write_text(json.dumps({"terminals": 4, "weights": [
            {"i": 1, "j": 2, "value": "2/3"}, {"i": 1, "j": 3, "value": "3/2"},
            {"i": 2, "j": 4, "value": 1}, {"i": 3, "j": 4, "value": "1/3"}]}))
        loaded, load_model = [], pinkey.cli.load_model
        monkeypatch.setattr(pinkey.cli, "load_model",
                            lambda path: loaded.append(load_model(path)) or loaded[-1])
        code, out, _ = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 0 and out
        model, = loaded
        assert model.exact and "_weights" not in vars(model)


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate", "x.json"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("command", ["pack", "simulate", "capacity"])
    def test_subcommand_help_exits_zero(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--help")
        assert code == 0
        assert out.startswith(f"usage: pinkey {command}")
        assert err == ""

    @pytest.mark.parametrize("argv", [
        ["pack", TRIANGLE, "--scale", "abc"],
        ["pack", TRIANGLE, "--set", "-1,2"],
        ["upper-bound", TRIANGLE, "--bogus"],
        ["pack"],
        [],
        ["frobnicate", TRIANGLE],
        # flag integers follow the model-file rule -?[0-9]+, not int()
        ["pack", TRIANGLE, "--set", "1,\u0662"],
        ["capacity", TRIANGLE, "--set", " 1,+2"],
        ["pack", TRIANGLE, "--scale", "\u0662"],
        ["simulate", TRIANGLE, "--seed", "1_0"],
        # past int()'s digit limit: still argparse's one line, on either path
        ["simulate", TRIANGLE, "--seed", "9" * 5000],
    ])
    def test_rejected_command_line_is_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_repeated_calls_give_identical_output(self, capsys):
        requests = [
            ("capacity", TRIANGLE),
            ("upper-bound", STAR, "--set", "1,2,3"),
            ("pack", TRIANGLE, "--scale", "2", "--format", "structured"),
            ("simulate", PATH_MODEL, "--set", "1,3", "--seed", "4"),
            ("validate", STAR, "--format", "structured"),
        ]
        first = [run_cli(capsys, *request) for request in requests]
        second = [run_cli(capsys, *request) for request in requests]
        assert all(code == 0 and out for code, out, _ in first)
        assert second == first


# Command-line parts for the fast-path property: each command's own flags
# with good values, values that argparse rejects or reads by its own rules,
# and tokens the fast path leaves to argparse.
_COMMAND_FLAGS = {
    "capacity": ("--set", "--format"),
    "upper-bound": ("--set", "--format"),
    "pack": ("--set", "--format", "--scale", "--mode"),
    "simulate": ("--set", "--format", "--scale", "--mode", "--seed"),
    "validate": ("--format",),
}
_ALL_FLAGS = ("--set", "--format", "--scale", "--mode", "--seed")
_GOOD_VALUES = {
    "--set": ("1,2", "3,1,2", "x", ""),
    "--format": ("text", "structured"),
    "--scale": ("1", "2", "0", "007"),
    "--mode": ("exact", "greedy"),
    "--seed": ("0", "7", "123456789012345678901234567890"),
}
# values argparse reads by its own rules (a leading "-"), and per flag the
# values its type or choices reject: int() takes " 1", "+2", "1_0" and
# "\u0662", _integer does not, and "9" * 5000 is past int()'s digit limit
_DASH_VALUES = ("-5", "-1,2", "-0", "-", "--", "--set", "-h")
_INT_REJECTED = (" 1", "+2", "1_0", "\u0662", "1.5", "", "9" * 5000)
_REJECTED_VALUES = {
    "--set": (),
    "--format": ("yaml", "Text", ""),
    "--scale": _INT_REJECTED,
    "--mode": ("fast", "Exact", ""),
    "--seed": _INT_REJECTED,
}
_STRAY_TOKENS = ("-h", "--help", "--", "-x", "--bogus", "extra", "validate")
_VALUE_EDITS = ("rejected", "dash", "repeat")
_SHAPE_EDITS = ("command", "model", "no model", "other flag", "abbreviation", "equals",
                "stray")


@st.composite
def _argvs(draw):
    """A well-formed command line (a command, a model path and some of its
    own flags in any order), then up to two edits of its values and up to
    two of its shape, which argparse may read or reject."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    model = draw(st.sampled_from(["model.json", TRIANGLE, "a b", "5"]))
    parts = [[flag, draw(st.sampled_from(_GOOD_VALUES[flag]))]
             for flag in draw(st.permutations(_COMMAND_FLAGS[command]))
             if draw(st.booleans())]
    edits = (draw(st.lists(st.sampled_from(_VALUE_EDITS), max_size=2))
             + draw(st.lists(st.sampled_from(_SHAPE_EDITS), max_size=2)))
    for edit in edits:
        where = draw(st.integers(0, len(parts)))
        pairs = [part for part in parts if len(part) == 2]
        pair = draw(st.sampled_from(pairs)) if pairs else [None, None]
        rejected = _REJECTED_VALUES.get(pair[0], ())
        if edit == "command":
            command = draw(st.sampled_from(["capacit", "Pack", "simulate ", "-h", "", "--help"]))
        elif edit == "model":
            model = draw(st.sampled_from(["", "-m", "--set", "--"]))
        elif edit == "no model":
            model = None
        elif edit in ("rejected", "dash"):
            pair[1] = draw(st.sampled_from(rejected if edit == "rejected" and rejected
                                           else _DASH_VALUES))
        elif edit == "repeat" and pair[0] is not None:
            parts.insert(where, [pair[0], draw(st.sampled_from(
                _GOOD_VALUES.get(pair[0], ()) + rejected + _DASH_VALUES))])
        elif edit == "other flag":
            flag = draw(st.sampled_from(_ALL_FLAGS))
            parts.insert(where, [flag, draw(st.sampled_from(_GOOD_VALUES[flag]))])
        elif edit == "abbreviation" and pair[0] is not None and len(pair[0]) > 2:
            pair[0] = pair[0][:draw(st.integers(2, len(pair[0]) - 1))]
        elif edit == "equals" and pair[0] is not None:
            pair[:] = [f"{pair[0]}={pair[1]}"]
        elif edit == "stray":
            parts.insert(where, [draw(st.sampled_from(_STRAY_TOKENS))])
    return [command] + ([] if model is None else [model]) + [
        token for part in parts for token in part]


def _argparse_result(argv):
    """The attributes of argparse's Namespace for argv, or the code it
    exits with."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return f"exit {exc.code}"


def _never_built():
    raise AssertionError("the argparse parser was built")


class TestFastPath:
    """``main`` parses a well-formed command line without argparse; every
    attribute, ``func`` included, must be argparse's, and anything else is
    left to argparse."""

    @settings(max_examples=2000, deadline=None)
    @given(_argvs())
    def test_fast_path_is_none_or_argparses_namespace(self, argv):
        fast = _fast_args(argv)
        assert fast is None or vars(fast) == _argparse_result(argv), argv

    @pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
    def test_every_well_formed_argv_takes_the_fast_path(self, command):
        # with and without each flag, in the order benchmark requests write them
        values = {"--set": "2,1", "--scale": "4", "--mode": "greedy", "--seed": "3",
                  "--format": "structured"}
        flags = [flag for flag in values if flag in _COMMAND_FLAGS[command]]
        for used in itertools.product((False, True), repeat=len(flags)):
            argv = [command, "model.json"] + [
                token for flag, on in zip(flags, used) if on for token in (flag, values[flag])]
            fast = _fast_args(argv)
            assert fast is not None, argv
            assert vars(fast) == _argparse_result(argv)

    @pytest.mark.parametrize("workload", ["analyze", "span", "wide", "desk"])
    def test_every_benchmark_request_takes_the_fast_path(self, workload):
        pool = load_workloads().build(workload, 1)
        for request in pool.requests:
            argv = request.argv("model_000.json")
            fast = _fast_args(argv)
            assert fast is not None, argv
            assert vars(fast) == _argparse_result(argv)

    @pytest.mark.parametrize("argv", [
        ["simulate", TRIANGLE, "--scale", "2", "--seed", "3", "--format", "structured"],
        ["capacity", PATH_MODEL, "--set", "1,3"],
        ["pack", TRIANGLE, "--mode=greedy"],
        ["simulate", TRIANGLE, "--seed", "-5"],
        ["pack", TRIANGLE, "--scale", "x"],
        ["upper-bound", "--help"],
    ])
    def test_main_reads_sys_argv_when_given_none(self, capsys, monkeypatch, argv):
        expected = run_cli(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["pinkey", *argv])
        if _fast_args(argv) is not None:  # real command lines take the fast path too
            monkeypatch.setattr(pinkey.cli, "build_parser", _never_built)
        code = main()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected

    def test_table_and_parser_agree_on_every_flag(self):
        import argparse
        parser = build_parser()
        assert build_parser() is parser  # built once
        commands, = (action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction))
        assert commands.dest == "command"
        assert list(commands.choices) == list(_COMMANDS)
        assert [action.help for action in commands._choices_actions] == [
            help_text for help_text, *_ in _COMMANDS.values()]
        for name, (_, handler, (positional, positional_help), flags) in _COMMANDS.items():
            sub = commands.choices[name]
            assert sub._defaults == {"func": handler}
            actions = [action for action in sub._actions
                       if not isinstance(action, argparse._HelpAction)]
            assert [(action.dest, action.option_strings, action.help, action.nargs)
                    for action in actions] == [(positional, [], positional_help, None)] + [
                (flag[2:], [flag], flag_help, None)
                for flag, (_, _, _, flag_help) in flags.items()]
            for action, (kind, choices, default, _) in zip(actions[1:], flags.values()):
                assert (action.choices, action.default) == (choices, default), action
                if kind is str:
                    assert action.type is None
                else:
                    assert kind is int
                    assert action.type("-12") == -12
                    with pytest.raises(argparse.ArgumentTypeError,
                                       match=r"^invalid int value: '\+12'$"):
                        action.type("+12")

    _CHILD = ("import sys\n"
              "import pinkey.cli\n"
              "code = pinkey.cli.main(sys.argv[1:])\n"
              "print(code, *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)),\n"
              "      file=sys.stderr)\n")

    @pytest.mark.parametrize("argv,loaded", [
        (["capacity", TRIANGLE, "--format", "structured"], []),
        (["simulate", TRIANGLE, "--scale", "2", "--seed", "3"], []),
        (["validate", TRIANGLE], []),
        (["pack", "--help"], ["argparse", "gettext", "locale"]),
    ])
    def test_only_a_declined_line_imports_argparse(self, argv, loaded):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        child = subprocess.run([sys.executable, "-c", self._CHILD, *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stderr.split() == ["0", *loaded]
        if loaded:
            assert child.stdout.startswith("usage: pinkey pack [-h] [--set SET]")
        else:
            assert child.stdout


# Model-file parts for the fuzz below: valid values, and malformed ones
# drawn about one time in eight.
_WEIGHTS = st.integers(0, 3) | st.sampled_from(["1/2", "2/3", "3/2", "0/5"])
_BAD_WEIGHTS = st.sampled_from(["3/0", "x", "1/2/3", 1.5, True, False, -1, "-1/2",
                                None, [], "1_0", "\u0663/\u0662", " 3 ", "+3",
                                "3/ 2"])
_PROBS = st.sampled_from([[0.5, 0.0, 0.0, 0.5], [0.25] * 4, [0.4, 0.1, 0.1, 0.4]])
_BAD_PROBS = st.lists(
    st.sampled_from([0.0, 0.25, 0.5, -0.25, math.nan, math.inf, True, "0.5",
                     10**400]),
    min_size=3, max_size=5)
_BAD_TERMINALS = st.sampled_from([0, 1, -3, 13, 10**6, "3", 3.0, True, None])


def _rarely(draw, good, bad):
    return draw(bad if draw(st.integers(0, 7)) == 7 else good)


@st.composite
def _model_text(draw):
    m = draw(st.integers(2, 6))
    doc = {"terminals": _rarely(draw, st.just(m), _BAD_TERMINALS)}
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    pairs += _rarely(draw, st.just([]), st.sampled_from([[(1, 1)], [(0, 2)],
                                                         [(1, m + 1)], [(2, 1)]]))
    kinds = _rarely(draw, st.sampled_from([("weights",), ("weights", "pmfs")]),
                    st.sampled_from([("pmfs",), ()]))
    if "weights" in kinds:
        doc["weights"] = [{"i": i, "j": j, "value": _rarely(draw, _WEIGHTS, _BAD_WEIGHTS)}
                          for i, j in pairs if draw(st.booleans())]
    if "pmfs" in kinds:
        doc["pmfs"] = [{"i": i, "j": j, "rows": 2, "cols": 2,
                        "probs": _rarely(draw, _PROBS, _BAD_PROBS)}
                       for i, j in pairs if draw(st.integers(0, 3)) == 3]
    text = json.dumps(doc)
    if draw(st.integers(0, 7)) == 7:  # a truncated file
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def _flags(draw, command):
    flags = []
    if command != "validate" and draw(st.booleans()):
        members = draw(st.lists(st.integers(-1, 8), max_size=4))
        spec = ",".join(map(str, members)) or draw(st.sampled_from(["", "x", "1,,2"]))
        flags.append(f"--set={spec}")
    if command in ("pack", "simulate"):
        if draw(st.booleans()):
            flags.append(f"--scale={draw(st.integers(-2, 6))}")
        if draw(st.booleans()):
            flags.append(f"--mode={draw(st.sampled_from(['exact', 'greedy']))}")
    if draw(st.booleans()):
        flags.append(f"--format={draw(st.sampled_from(['text', 'structured']))}")
    return flags


# Flag lists that argparse itself rejects: a value of the wrong type
# (flag integers are -?[0-9]+ only) or choice, a value that looks like an option, a flag without its value, an
# unknown flag, a stray positional (with no model path, it stands in for
# the model, which then fails to load).
_REJECTED = st.sampled_from([
    ["--scale", "abc"], ["--scale=1.5"], ["--scale", "\u0662"], ["--set", "-1,2"],
    ["--set"], ["--seed", "x"], ["--seed", "1_0"], ["--mode", "fast"],
    ["--format=yaml"], ["--bogus"], ["-x"], ["extra"],
])


class TestFuzz:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["capacity", "upper-bound", "pack", "simulate", "validate"]),
           st.booleans(), st.lists(_REJECTED, min_size=1, max_size=2),
           st.booleans())
    def test_rejected_flags_end_in_one_error_line(self, command, model, rejected,
                                                  first):
        flags = [token for flag in rejected for token in flag]
        argv = [command] + ([TRIANGLE] if model else [])
        argv = [command] + flags + argv[1:] if first else argv + flags
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code == 2, (argv, err)
        assert out.getvalue() == ""
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    @settings(max_examples=300, deadline=None)
    @given(_model_text(),
           st.sampled_from(["capacity", "upper-bound", "pack", "simulate", "validate"])
           .flatmap(lambda command: st.tuples(st.just(command), _flags(command))))
    def test_random_model_files_end_in_documented_exit_codes(self, text, request):
        command, flags = request
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "model.json"
            path.write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path), *flags])
        err = err.getvalue()
        assert code in (0, 2, 3, 4), err
        assert err.count("\n") <= 1, err
        assert "Traceback" not in out.getvalue() + err
