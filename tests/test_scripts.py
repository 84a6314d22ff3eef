"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )


def test_scripts_run_clean(tmp_path):
    proc = run_script("run_all.py", "--out", str(tmp_path / "results"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "overall: PASS" in lines
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        status = [line for line in lines if line.split()[:3] == [cfg.stem, "exit", "0"]]
        assert len(status) == 1, cfg.stem
        # the CSV and the verdict each carry their digest
        assert re.fullmatch(r".* csv [0-9a-f]{12}  verdict [0-9a-f]{12}", status[0]), status[0]
    for name in ("remainder_routes.py", "literal_constants_demo.py"):
        proc = run_script(name)
        assert proc.returncode == 0, (name, proc.stderr)


RUN_OUTPUT = """\
host {"git_sha": "abc123", "nproc": 2}
== volume3d seed 0: 212 passes x 8 jobs, 8 of 8 jobs have a reference at this seed
  wall_s                                             0.0612 s
  fail_frac                                               0 (0/1696 jobs)
  wall_s over 212 passes: min 0.0551, max 0.1410; tail p95 = 0.0800 s
  median wall_s per job: a 0.0100
{"correct": true, "attempted": 1696, "failed": 0, "metrics": {"wall_s": {"value": 0.0612, "unit": "s"}}}
"""


def load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    return bench_record


def test_bench_record_parses_run_output():
    parsed = load_bench_record().parse(RUN_OUTPUT)
    assert parsed["host"] == {"git_sha": "abc123", "nproc": 2}
    assert parsed["summary"] == [
        "== volume3d seed 0: 212 passes x 8 jobs, 8 of 8 jobs have a reference at this seed",
        "wall_s over 212 passes: min 0.0551, max 0.1410; tail p95 = 0.0800 s",
    ]
    assert parsed["result"]["correct"] is True
    assert parsed["result"]["metrics"]["wall_s"]["value"] == 0.0612


def test_bench_record_medians_per_side_and_metric():
    def run(name, wall, cpu):
        metrics = {"wall_s": {"value": wall, "unit": "s"}, "cpu_s": {"value": cpu, "unit": "s"}}
        return {"name": name, "result": {"metrics": metrics}}

    runs = [
        run("parent", 0.06, 0.05),
        run("change", 0.04, 0.03),
        run("change", 0.05, 0.02),
        run("parent", 0.08, 0.07),
        run("parent", 0.07, 0.09),
        run("change", 0.03, 0.04),
    ]
    assert load_bench_record().medians(runs) == {
        "parent": {"wall_s": 0.07, "cpu_s": 0.07},
        "change": {"wall_s": 0.04, "cpu_s": 0.03},
    }
    assert load_bench_record().medians(runs[1:3]) == {"change": {"wall_s": 0.045, "cpu_s": 0.025}}


def test_bench_record_rejects_zero_rounds():
    proc = run_script("bench_record.py", "unused", "--rounds", "0", "--", "--workload", "volume3d")
    assert proc.returncode == 2
    assert "--rounds must be at least 1" in proc.stderr
    assert not (ROOT / "BENCH_unused.json").exists()


def test_bench_record_quartiles_and_rounds_read_lower():
    def run(round_, name, wall, cpu):
        metrics = {"wall_s": {"value": wall, "unit": "s"}, "cpu_s": {"value": cpu, "unit": "s"}}
        return {"round": round_, "name": name, "result": {"metrics": metrics}}

    # round 2 ties on cpu_s, which counts for neither side
    runs = [
        run(0, "parent", 6.0, 5.0),
        run(0, "change", 4.0, 6.0),
        run(1, "change", 5.0, 2.0),
        run(1, "parent", 8.0, 7.0),
        run(2, "parent", 7.0, 4.0),
        run(2, "change", 9.0, 4.0),
        run(3, "parent", 10.0, 8.0),
        run(3, "change", 3.0, 3.0),
    ]
    bench_record = load_bench_record()
    assert bench_record.quartiles(runs) == {
        "parent": {"wall_s": [6.75, 8.5], "cpu_s": [4.75, 7.25]},
        "change": {"wall_s": [3.75, 6.0], "cpu_s": [2.75, 4.5]},
    }
    assert bench_record.lower_in(runs) == {
        "parent": {"wall_s": 1, "cpu_s": 1},
        "change": {"wall_s": 3, "cpu_s": 2},
    }
    # one run per side: both quartiles are that run's value
    assert bench_record.quartiles(runs[:2]) == {
        "parent": {"wall_s": [6.0, 6.0], "cpu_s": [5.0, 5.0]},
        "change": {"wall_s": [4.0, 4.0], "cpu_s": [6.0, 6.0]},
    }


def test_bench_record_gain_shown_needs_nine_tenths_and_a_gap_beyond_the_iqr():
    # parent reads 10..19 over ten rounds: median 14.5, quartiles 12.25 and
    # 16.75, so a gain needs the change's median below 10.0
    parent = [10.0 + i for i in range(10)]
    change = {
        "nine_of_ten": [5.0] * 9 + [25.0],
        "eight_of_ten": [5.0] * 8 + [parent[8], 25.0],  # the tie counts for neither
        "within_iqr": [p - 1.0 for p in parent],  # lower in all ten, by 1.0
    }
    runs = []
    for i, value in enumerate(parent):
        metrics = {name: {"value": value} for name in change}
        runs.append({"round": i, "name": "parent", "result": {"metrics": metrics}})
        metrics = {name: {"value": v[i]} for name, v in change.items()}
        runs.append({"round": i, "name": "change", "result": {"metrics": metrics}})
    bench_record = load_bench_record()
    assert bench_record.lower_in(runs)["change"] == {
        "nine_of_ten": 9, "eight_of_ten": 8, "within_iqr": 10,
    }
    assert bench_record.gain_shown(runs, "parent", "change") == {
        "nine_of_ten": True, "eight_of_ten": False, "within_iqr": False,
    }
    # the parent shows no gain over the change
    assert not any(bench_record.gain_shown(runs, "change", "parent").values())
