"""Smoke tests: the example scripts run against the current API."""

import json
import os
import platform
import runpy
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_protocol_demo():
    result = run_script("protocol_demo.py")
    assert result.returncode == 0, result.stderr
    assert "audit passed" in result.stdout


def test_capacity_gap_survey():
    result = run_script("capacity_gap_survey.py", "--models", "5",
                        "--terminals", "4")
    assert result.returncode == 0, result.stderr
    assert "case" in result.stdout.splitlines()[0]


def test_ladder_writes_a_bench_file(tmp_path):
    result = run_script("ladder.py", "--label", "smoke", "--repeat", "1",
                        "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert report["label"] == "smoke"
    assert report["python"] == platform.python_version()
    assert report["revision"]
    rows = {row["row"]: row for row in report["rows"]}
    assert list(rows) == ["spanning/found9", "spanning/K4x300", "spanning/K6x210"] + [
        f"spanning/random_m{m}" for m in range(9, 13)] + [
        "spanning/bridge_K6x20", "spanning/dense_m20", "spanning/scaled_floor",
        "paths/scaled_floor"] + [
        f"capacity/dense_m{m}{suffix}" for suffix in ("", "_pair", "_half")
        for m in range(9, 13)] + ["capacity/unit_K12_pair", "capacity/unit_K12_half",
                                  "capacity/floor_m6"] + [
        f"bound/dense_m{m}" for m in range(9, 13)] + [
        f"protocol/path_{size}k" for size in (30, 100, 300)] + [
        "audit/bruteforce_path16", "audit/bruteforce_copies20",
        "steiner/set_s1", "steiner/set_s2", "steiner/path_m20", "steiner/grid_corners",
        "steiner/grid_5", "steiner/grid_7", "steiner/robust_m16", "steiner/greedy_m12",
        "steiner/greedy_K96", "cli/load_floor", "cli/argv_floor", "cli/import_floor", "cli/text_pack",
        "cli/text_simulate", "cli/structured_simulate"]
    assert rows["spanning/K4x300"]["trees"] == 600
    assert rows["spanning/K4x300"]["groups"] == 2
    # every spanning row counts its exchange searches beside its times
    spanning = [row for name, row in rows.items() if name.startswith("spanning/")]
    assert len(spanning) == 10
    assert all(type(row["searches"]) is int and row["searches"] >= 0 for row in spanning)
    # one search per shifted run of copies
    assert (rows["spanning/K4x300"]["searches"], rows["spanning/K6x210"]["searches"]) == (1, 3)
    # the degree bound says 54 trees, the bridge allows 1
    assert (rows["spanning/bridge_K6x20"]["edges"], rows["spanning/bridge_K6x20"]["trees"]) == (
        601, 1)
    # past the partition search's cap: the union packs the degree bound
    assert (rows["spanning/dense_m20"]["terminals"], rows["spanning/dense_m20"]["trees"]) == (
        20, 27)
    scaled = rows["spanning/scaled_floor"]
    assert (scaled["graphs"], scaled["trees"], scaled["groups"]) == (112, 4794, 642)
    assert 100 * 112 <= scaled["edges"] <= 200 * 112
    paths = rows["paths/scaled_floor"]
    assert (paths["graphs"], paths["edges"], paths["trees"]) == (112, 66386, 26043)
    assert rows["capacity/dense_m12"]["value"] == "653/66"
    assert rows["capacity/dense_m12"]["columns"] == 2 ** 12 - 2
    assert rows["capacity/dense_m12_pair"]["columns"] == 2 ** 12 - 2 ** 10 - 1
    assert rows["capacity/dense_m12_half"]["columns"] == 2 ** 12 - 2 ** 6 - 1
    # the unit K12: every two terminals are joined by 11 edge-disjoint paths
    assert rows["capacity/unit_K12_pair"]["value"] == "11"
    assert rows["capacity/unit_K12_pair"]["columns"] == 2 ** 12 - 2 ** 10 - 1
    assert rows["capacity/unit_K12_half"]["columns"] == 2 ** 12 - 2 ** 6 - 1
    for m in range(9, 13):
        # at A = M the capacity equals the partition bound
        assert rows[f"bound/dense_m{m}"]["value"] == rows[f"capacity/dense_m{m}"]["value"]
    # every capacity row counts its simplex pivots beside its times
    lps = [row for name, row in rows.items() if name.startswith("capacity/")]
    assert len(lps) == 15
    assert all(type(row["pivots"]) is int and row["pivots"] >= 0 for row in lps)
    floor = rows["capacity/floor_m6"]
    assert floor["lps"] == 102
    # over all three phases: about 4 pivots per LP from the co-atom start,
    # above 6 from the singletons
    assert 0 < floor["pivots"] < 5 * 102
    assert floor["sizes"] == [2, 3, 6] * 34
    # every vertex of the floor set is partition-shaped: no bound is searched for
    assert floor["certified"] == 102
    for size, capacity, bound in zip(floor["sizes"], floor["capacities"], floor["bounds"]):
        # tight at |A| = 2 and A = M, a bound everywhere
        assert Fraction(capacity) <= Fraction(bound)
        if size in (2, 6):
            assert capacity == bound
    for size in (30, 100, 300):
        row = rows[f"protocol/path_{size}k"]
        # half the edges carry key bits, the other half one broadcast each
        assert row["edges"] == size * 1000
        assert row["key_bits"] == row["transcript_bits"] == size * 500
        assert row["audit_passed"] is True
    # both at or under the brute-force cap, so the audit runs it too
    assert [(rows[f"audit/{name}"]["edges"], rows[f"audit/{name}"]["audit_method"],
             rows[f"audit/{name}"]["audit_passed"])
            for name in ("bruteforce_path16", "bruteforce_copies20")] == [
        (16, "rank+bruteforce", True), (20, "rank+bruteforce", True)]
    assert (rows["steiner/set_s1"]["graphs"], rows["steiner/set_s1"]["trees"]) == (40, 185)
    assert (rows["steiner/set_s2"]["graphs"], rows["steiner/set_s2"]["trees"]) == (20, 167)
    assert (rows["steiner/path_m20"]["graphs"], rows["steiner/path_m20"]["trees"]) == (1, 1)
    assert (rows["steiner/grid_corners"]["graphs"],
            rows["steiner/grid_corners"]["trees"]) == (1, 2)
    # one tree over the greedy incumbent in each
    assert [rows[f"steiner/{name}"]["trees"] for name in ("grid_5", "grid_7", "robust_m16")] == [
        2, 2, 2]
    assert rows["steiner/greedy_m12"]["trees"] == 29_568
    # 30 models for each m = 3..6, every one realized at its base scale
    assert (rows["cli/load_floor"]["models"], rows["cli/load_floor"]["edges"]) == (120, 1167)
    # five commands with every flag on each of those paths, all on the fast path
    assert rows["cli/argv_floor"]["argvs"] == rows["cli/argv_floor"]["fast"] == 600
    # the import adds at least pinkey's own modules, timed inside the child,
    # and leaves argparse to the command lines that need it
    assert rows["cli/import_floor"]["modules"] >= 13
    assert rows["cli/import_floor"]["argparse"] is False
    assert 0 < rows["cli/import_floor"]["best_s"] < 5
    # every tree and every broadcast of a 100k-edge run, as text and as JSON
    assert [(rows[name]["edges"], rows[name]["code"], rows[name]["bytes"])
            for name in ("cli/text_pack", "cli/text_simulate", "cli/structured_simulate")] == [
        (100_000, 0, 2_377_856), (100_000, 0, 2_990_510), (100_000, 0, 4_255_927)]
    assert all(row["best_s"] == min(row["times_s"]) for row in rows.values())


def test_ladder_argv_row_reads_either_checkouts_parser(monkeypatch):
    # this checkout builds its parser on demand and has no _PARSER; an
    # older one keeps its built parser there, and one without the fast
    # path parses every line with it
    ladder = runpy.run_path(str(ROOT / "scripts" / "ladder.py"))
    cli = sys.modules["pinkey.cli"]
    texts = ['{"terminals": 3, "weights": [{"i": 1, "j": 2, "value": 1}]}']
    assert not hasattr(cli, "_PARSER")
    row = ladder["argv_row"](texts, 1)
    assert (row["argvs"], row["fast"]) == (5, 5)

    parsed = []
    monkeypatch.setattr(cli, "_PARSER", SimpleNamespace(parse_args=parsed.append),
                        raising=False)
    monkeypatch.delattr(cli, "build_parser")
    monkeypatch.delattr(cli, "_fast_args")
    row = ladder["argv_row"](texts, 1)
    assert (row["argvs"], row["fast"], len(parsed)) == (5, 0, 5)


def test_ladder_compare_prints_best_times_and_ratios(tmp_path):
    def bench(label, rows):
        path = tmp_path / f"BENCH_{label}.json"
        path.write_text(json.dumps({
            "label": label, "revision": f"rev-{label}",
            "rows": [{"row": row, "best_s": best, "times_s": [best]}
                     for row, best in rows]}))
        return str(path)

    base = bench("base", [("spanning/a", 0.2), ("protocol/b", 0.1)])
    head = bench("head", [("spanning/a", 0.05), ("capacity/c", 0.3)])
    result = run_script("ladder.py", "--compare", base, head)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[:2] == ["BASE base (rev-base)", "HEAD head (rev-head)"]
    assert [line.split() for line in lines[3:]] == [
        ["spanning/a", "0.2000", "0.0500", "0.250"],
        ["protocol/b", "0.1000", "-", "-"],
        ["capacity/c", "-", "0.3000", "-"],
    ]


def test_ladder_compare_times_two_roots_interleaved(tmp_path):
    roots = [tmp_path / "base", tmp_path / "head"]
    for root in roots:
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    result = run_script("ladder.py", "--compare", *map(str, roots), "--repeat", "2",
                        "--rows", "capacity/dense_m9")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith(f"BASE {roots[0]} (")
    assert lines[1].startswith(f"HEAD {roots[1]} (")
    assert lines[2].split() == ["row", "BASE", "s", "HEAD", "s", "HEAD/BASE", "median",
                                "min-max"]
    table = [line.split() for line in lines[3:]]
    assert [row[0] for row in table] == [
        "capacity/dense_m9", "capacity/dense_m9_pair", "capacity/dense_m9_half"]
    for _, base, head, ratio, median, spread in table:
        assert float(base) > 0 and float(head) > 0
        assert float(ratio) > 0 and float(median) > 0
        low, high = map(float, spread.split("-"))
        assert 0 < low <= float(median) <= high


def test_ladder_compare_median_pairs_each_round(tmp_path, monkeypatch):
    # three rounds of fake interpreters: HEAD's best of bests is half BASE's,
    # but the median of the per-round ratios is 0.9, within their range
    # 0.5-2.0; a row that hit a size limit at BASE shows no time and no
    # ratio there
    ladder = runpy.run_path(str(ROOT / "scripts" / "ladder.py"))
    head_times = iter([0.5, 2.0, 0.9])

    def fake_run(argv, env=None, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, stdout="rev", stderr="")
        out = Path(argv[argv.index("--out") + 1])
        label = argv[argv.index("--label") + 1]
        if env["PYTHONPATH"].startswith(str(tmp_path / "base")):
            rows = [{"row": "spanning/a", "best_s": 1.0}, {"row": "spanning/b", "limit": "cap"}]
        else:
            rows = [{"row": "spanning/a", "best_s": next(head_times)},
                    {"row": "spanning/b", "best_s": 0.25}]
        (out / f"BENCH_{label}.json").write_text(json.dumps({"rows": rows}))
        return subprocess.CompletedProcess(argv, 0)

    monkeypatch.setattr(subprocess, "run", fake_run)
    lines = ladder["compare_roots"]([tmp_path / "base", tmp_path / "head"], 3, "spanning/")
    assert [line.split() for line in lines[3:]] == [
        ["spanning/a", "1.0000", "0.5000", "0.500", "0.900", "0.500-2.000"],
        ["spanning/b", "-", "0.2500", "-", "-", "-"],
    ]


def test_ladder_compare_rejects_a_file_and_a_root(tmp_path):
    bench = tmp_path / "BENCH_x.json"
    bench.write_text("{}")
    result = run_script("ladder.py", "--compare", str(bench), str(ROOT))
    assert result.returncode == 2
    assert "two checkout roots" in result.stderr


def test_ladder_needs_a_label_to_time():
    result = run_script("ladder.py")
    assert result.returncode == 2
    assert "--label is required" in result.stderr
