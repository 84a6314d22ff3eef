"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
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
    for name in ("remainder_routes.py", "literal_constants_demo.py"):
        proc = run_script(name)
        assert proc.returncode == 0, (name, proc.stderr)
