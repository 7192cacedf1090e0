"""Smoke tests: the example scripts run against the current API."""

import json
import os
import platform
import subprocess
import sys
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
        f"capacity/dense_m{m}" for m in range(9, 13)] + [
        f"protocol/path_{size}k" for size in (30, 100, 300)] + [
        "steiner/set_s1", "steiner/path_m20"]
    assert rows["spanning/K4x300"]["trees"] == 600
    assert rows["spanning/K4x300"]["groups"] == 2
    assert rows["capacity/dense_m12"]["value"] == "653/66"
    assert rows["capacity/dense_m12"]["columns"] == 2 ** 12 - 2
    for size in (30, 100, 300):
        row = rows[f"protocol/path_{size}k"]
        # half the edges carry key bits, the other half one broadcast each
        assert row["edges"] == size * 1000
        assert row["key_bits"] == row["transcript_bits"] == size * 500
        assert row["audit_passed"] is True
    assert (rows["steiner/set_s1"]["graphs"], rows["steiner/set_s1"]["trees"]) == (40, 185)
    assert (rows["steiner/path_m20"]["graphs"], rows["steiner/path_m20"]["trees"]) == (1, 1)
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


def test_ladder_needs_a_label_to_time():
    result = run_script("ladder.py")
    assert result.returncode == 2
    assert "--label is required" in result.stderr
