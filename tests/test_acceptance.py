"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure marks the corresponding criterion as failed.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pinkey import (
    TerminalSet,
    audit,
    base_scale,
    check_objective_consistency,
    draw_edge_keys,
    flip_broadcast,
    leak_key_bit,
    max_disjoint_paths,
    min_cut,
    nash_williams_count,
    realize_multigraph,
    recover_key,
    run_protocol,
    security_index_bruteforce,
    security_index_rank,
    solve_capacity,
    spanning_packing,
    spanning_rate,
    steiner_packing,
    steiner_rate_lower_bound,
    upper_bound,
)
from pinkey.cli import main as cli_main

from helpers import (
    AUDIT_MODULE,
    brute_min_cut,
    random_exact_model,
    random_multigraph,
    random_pmf_model,
    random_terminal_set,
)

GOLDENS = Path(__file__).parent / "goldens"


def _report(line: str) -> None:
    print(f"\n[PASS] {line}")


def test_criterion_1_pairwise_capacity_equals_cut_rate_and_bound():
    started = time.monotonic()
    rng = random.Random(20201)
    checked = 0
    for _ in range(200):
        model = random_exact_model(rng, max_num=8, max_den=4)
        n0 = base_scale(model)
        graph = realize_multigraph(model, n0)
        for s, t in itertools.combinations(range(1, model.m + 1), 2):
            target = TerminalSet.of(s, t)
            capacity = solve_capacity(model, target).value
            cut_rate = Fraction(min_cut(graph, s, t), n0)
            bound = upper_bound(model, target)
            assert capacity == cut_rate == bound, (
                f"m={model.m} A={{{s},{t}}}: C={capacity} cut={cut_rate} "
                f"ub={bound}"
            )
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"criterion 1 took {elapsed:.1f}s, budget is 30s"
    _report(
        f"criterion 1: pairwise capacity = min-cut rate = upper bound on "
        f"{checked} (model, pair) cases in {elapsed:.1f}s"
    )


def test_criterion_2_full_set_capacity_equals_spanning_rate():
    rng = random.Random(20202)
    convergence_checks = 0
    for _ in range(200):
        model = random_exact_model(rng, max_num=8, max_den=4)
        full = TerminalSet.full(model.m)
        capacity = solve_capacity(model, full).value
        rate = spanning_rate(model)
        bound = upper_bound(model, full)
        assert capacity == rate == bound
        n0 = base_scale(model)
        for k in range(1, 9):
            n = k * n0
            count = nash_williams_count(realize_multigraph(model, n))
            gap = rate - Fraction(count, n)
            assert 0 <= gap < Fraction(model.m - 1, n), (
                f"m={model.m} n={n}: rate={rate} count/n={Fraction(count, n)}"
            )
            convergence_checks += 1
    _report(
        "criterion 2: full-set capacity = spanning rate = upper bound on 200 "
        f"models; {convergence_checks} scaled counts within (m-1)/n of the rate"
    )


def test_criterion_3_menger_and_spanning_count_oracles():
    rng = random.Random(20203)
    for index in range(500):
        graph = random_multigraph(rng, max_m=7, max_mult=5)
        s, t = rng.sample(range(1, graph.m + 1), 2)
        paths = max_disjoint_paths(graph, s, t)
        cut = brute_min_cut(graph, s, t)
        assert paths.count == min_cut(graph, s, t) == cut, (
            f"graph {index}: paths={paths.count} cut={cut}"
        )
        packing = spanning_packing(graph)
        assert packing.count == nash_williams_count(graph), (
            f"graph {index}: packed={packing.count}"
        )
    _report(
        "criterion 3: path count = exhaustive min cut and spanning count = "
        "partition formula on 500 random multigraphs"
    )


def _small_steiner_model(rng: random.Random):
    """Model whose doubled realization stays under the exact-packing cap."""
    choices = [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1)]
    while True:
        m = rng.randint(4, 5)
        weights = {}
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                weights[(i, j)] = rng.choice(choices)
        if sum(weights.values()) == 0:
            continue
        from pinkey import PinModel

        model = PinModel.from_weights(m, weights)
        if realize_multigraph(model, 2 * base_scale(model)).total_edges() <= 20:
            return model


def test_criterion_4_steiner_sandwich_and_monotonicity():
    rng = random.Random(20204)
    cases = 0
    for _ in range(25):
        model = _small_steiner_model(rng)
        size = rng.randint(3, model.m - 1)
        target = random_terminal_set(rng, model.m, size=size)
        capacity = solve_capacity(model, target).value
        n0 = base_scale(model)
        rates = {}
        for k in (1, 2):
            n = k * n0
            graph = realize_multigraph(model, n)
            exact = steiner_packing(graph, target, mode="exact")
            greedy = steiner_packing(graph, target, mode="greedy")
            assert greedy.count <= exact.count, "greedy beat the exact optimum"
            assert Fraction(exact.count, n) <= capacity, (
                f"packing rate {Fraction(exact.count, n)} exceeds capacity "
                f"{capacity}"
            )
            rates[k] = Fraction(exact.count, n)
            assert rates[k] == steiner_rate_lower_bound(model, target, n)
        assert rates[1] <= rates[2], "rate must not drop when the scale doubles"
        cases += 1
    _report(
        f"criterion 4: greedy <= exact <= n*C(A) with monotone rate along "
        f"n0 -> 2n0 on {cases} random (model, A) cases with 2 < |A| < m"
    )


def test_criterion_5_protocol_recovery_and_accounting():
    rng = random.Random(20205)
    runs = 0
    for seed in range(1000):
        graph = random_multigraph(rng, max_m=5, max_mult=3)
        target = random_terminal_set(rng, graph.m)
        packing = steiner_packing(graph, target, mode="greedy")
        keys = draw_edge_keys(graph, seed)
        run = run_protocol(packing, keys)
        assert (
            len(run.key_bits) + len(run.transcript) + len(run.residual_bits)
            == graph.total_edges()
        )
        for terminal in target:
            assert recover_key(run, terminal) == run.key_bits, (
                f"seed {seed}: terminal {terminal} failed recovery"
            )
        runs += 1
    assert runs == 1000
    _report(
        "criterion 5: 1000 seeded runs, every target terminal recovered the "
        "key and |E| = |K| + |F| + |K_R| held throughout"
    )


def test_criterion_6_perfect_secrecy_and_falsifiability():
    rng = random.Random(20206)
    rank_checked = 0
    brute_checked = 0
    faults_checked = 0
    for seed in range(250):
        graph = random_multigraph(rng, max_m=5, max_mult=2)
        target = random_terminal_set(rng, graph.m)
        packing = steiner_packing(graph, target, mode="greedy")
        run = run_protocol(packing, draw_edge_keys(graph, seed))
        rank_report = security_index_rank(run)
        assert rank_report.security_index == 0
        rank_checked += 1
        if len(run.edge_order) <= 16:
            brute = security_index_bruteforce(run)
            assert brute.security_index == rank_report.security_index == 0
            assert brute.key_given_transcript == rank_report.key_given_transcript
            brute_checked += 1
        reachable = [
            k for k, b in enumerate(run.transcript)
            if b.informed_terminal in target
        ]
        if reachable and faults_checked < 50:
            # flip a broadcast a target terminal actually decodes through
            flipped = flip_broadcast(run, reachable[seed % len(reachable)])
            with pytest.MonkeyPatch.context() as patch:  # rank audit only
                patch.setattr(AUDIT_MODULE, "BRUTEFORCE_EDGE_CAP", 0)
                flip_rep = audit(flipped)
            leaky = leak_key_bit(
                run, seed % len(run.key_bits), seed % len(run.transcript)
            )
            leak_rep = security_index_rank(leaky)
            assert (not all(flip_rep.recoverability.values())
                    or flip_rep.security_index >= 1), "flip went unnoticed"
            assert leak_rep.security_index >= 1, "leak went unnoticed"
            faults_checked += 1
    assert brute_checked >= 100, "too few brute-force comparisons"
    assert faults_checked == 50
    _report(
        f"criterion 6: security index exactly 0 on {rank_checked} valid runs "
        f"(brute force agreed on {brute_checked} with |E| <= 16); "
        f"{faults_checked} fault-injected runs were caught"
    )


def test_criterion_7_objective_forms_agree():
    rng = random.Random(20207)
    worst = 0.0
    for _ in range(100):
        model = random_pmf_model(rng, m=3, max_alpha=3)
        target = random_terminal_set(rng, 3)
        report = check_objective_consistency(
            model, target, trials=100, seed=rng.randint(0, 10**6)
        )
        worst = max(worst, report.max_discrepancy)
        assert report.passed, (
            f"discrepancy {report.max_discrepancy} exceeds 1e-9"
        )
    _report(
        "criterion 7: direct and entropy objectives agree within 1e-9 over "
        f"100 pmf models x 100 random vertices (worst gap {worst:.2e})"
    )


def test_criterion_8_worked_example_goldens(capsys):
    cases = [
        (
            ["capacity", str(GOLDENS / "triangle_model.json"),
             "--format", "structured"],
            "triangle_capacity.json",
            ("capacity", "3/2"),
        ),
        (
            ["capacity", str(GOLDENS / "path_model.json"), "--set", "1,3",
             "--format", "structured"],
            "path_capacity_pair.json",
            ("capacity", "1"),
        ),
        (
            ["capacity", str(GOLDENS / "path_model.json"),
             "--format", "structured"],
            "path_capacity_full.json",
            ("capacity", "1"),
        ),
        (
            ["capacity", str(GOLDENS / "star_model.json"),
             "--format", "structured"],
            "star_capacity.json",
            ("capacity", "1"),
        ),
        (
            ["simulate", str(GOLDENS / "triangle_model.json"), "--scale", "2",
             "--seed", "0", "--format", "structured"],
            "triangle_simulate.json",
            ("security_index", "0"),
        ),
    ]
    for args, golden_name, (field, expected) in cases:
        code = cli_main(args)
        out = capsys.readouterr().out
        assert code == 0
        golden = (GOLDENS / golden_name).read_text()
        assert out == golden, f"structured output drifted for {golden_name}"
        assert json.loads(out)[field] == expected
        # byte-stability: a second invocation reproduces the bytes exactly
        assert cli_main(args) == 0
        assert capsys.readouterr().out == out
    _report(
        "criterion 8: triangle/path/star worked examples match their frozen "
        "structured outputs byte for byte"
    )
