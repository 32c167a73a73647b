import os
import subprocess
import sys
from pathlib import Path

import quadland

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def test_studies_run_to_completion():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for argv in (
        ["run_barrier_study.py", "--dims", "2", "3", "--trials", "20"],
        ["run_width_threshold.py", "--d", "3", "--seeds", "3"],
        ["run_convergence_experiment.py", "--dims", "2", "--seeds", "1"],
    ):
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (argv[0], proc.stderr)
        assert "Traceback" not in proc.stdout + proc.stderr, argv[0]


def test_every_public_name_resolves():
    missing = [name for name in quadland.__all__ if not hasattr(quadland, name)]
    assert not missing
