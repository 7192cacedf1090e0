"""Smoke tests: the example scripts run against the current API."""

import json
import os
import platform
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
        f"capacity/dense_m{m}{suffix}" for suffix in ("", "_pair", "_half")
        for m in range(9, 13)] + ["capacity/floor_m6"] + [
        f"bound/dense_m{m}" for m in range(9, 13)] + [
        f"protocol/path_{size}k" for size in (30, 100, 300)] + [
        "steiner/set_s1", "steiner/set_s2", "steiner/path_m20", "steiner/grid_corners",
        "cli/load_floor"]
    assert rows["spanning/K4x300"]["trees"] == 600
    assert rows["spanning/K4x300"]["groups"] == 2
    assert rows["capacity/dense_m12"]["value"] == "653/66"
    assert rows["capacity/dense_m12"]["columns"] == 2 ** 12 - 2
    assert rows["capacity/dense_m12_pair"]["columns"] == 2 ** 12 - 2 ** 10 - 1
    assert rows["capacity/dense_m12_half"]["columns"] == 2 ** 12 - 2 ** 6 - 1
    for m in range(9, 13):
        # at A = M the capacity equals the partition bound
        assert rows[f"bound/dense_m{m}"]["value"] == rows[f"capacity/dense_m{m}"]["value"]
    floor = rows["capacity/floor_m6"]
    assert floor["lps"] == 102
    assert floor["sizes"] == [2, 3, 6] * 34
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
    assert (rows["steiner/set_s1"]["graphs"], rows["steiner/set_s1"]["trees"]) == (40, 185)
    assert (rows["steiner/set_s2"]["graphs"], rows["steiner/set_s2"]["trees"]) == (20, 167)
    assert (rows["steiner/path_m20"]["graphs"], rows["steiner/path_m20"]["trees"]) == (1, 1)
    assert (rows["steiner/grid_corners"]["graphs"],
            rows["steiner/grid_corners"]["trees"]) == (1, 2)
    # 30 models for each m = 3..6, every one realized at its base scale
    assert (rows["cli/load_floor"]["models"], rows["cli/load_floor"]["edges"]) == (120, 1167)
    assert all(row["best_s"] == min(row["times_s"]) for row in rows.values())


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
    table = [line.split() for line in lines[3:]]
    assert [row[0] for row in table] == [
        "capacity/dense_m9", "capacity/dense_m9_pair", "capacity/dense_m9_half"]
    for _, base, head, ratio in table:
        assert float(base) > 0 and float(head) > 0
        assert float(ratio) > 0


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
