"""Committed digests of the artifacts of a fixed list of argvs.

The contract for a fixed argv and seed is byte-identical artifacts. This
module runs every argv in ARGVS in-process, hashes what each one wrote, and
compares the hashes with tests/artifact_digests.json: the sha256 of
results.jsonl, summary.json and every CSV, and of manifest.json without its
`timestamp` and `out` fields. An argv that exits non-zero is recorded by
its exit code and its stderr line instead.

A change that moves an artifact on purpose regenerates the file,

    PYTHONPATH=src python tests/test_artifact_digests.py --write

and names each moved argv and file in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

DIGESTS = Path(__file__).resolve().parent / "artifact_digests.json"

_README = [
    "gd-run --d 2 --m 8 --N 30 --seed 1",
    "barrier-scan --d 3 --m 8 --trials 500 --dist gaussian --seed 1",
    "sample-complexity --d 3 --trials 100 --seed 1",
    "init-check --d 10 --m 4000 --seeds 100",
    "geometry-check --d 4 --source prime",
    "recovery --d 3 --m 6 --scale 0.1",
    "spectrum --d 40 --m 4000 --seeds 100",
]

# perfbench/jobs.py's three workloads at instance seed 0
_BENCHMARK = [f"gd-run --d 8 --m 256 --N 180 --seed {k}" for k in range(4)] + [
    "init-check --d 10 --m 4000 --seeds 100 --seed 0",
    "spectrum --d 40 --m 4000 --seeds 100 --seed 0",
    "barrier-scan --d 3 --m 8 --trials 2000 --jobs 2 --seed 0",
    "sample-complexity --d 8 --trials 300 --jobs 2 --seed 0",
    "gd-run --objective population --policy inverse-smoothness --d 6 --m 144 --seed 0",
    "gd-run --d 3 --m 36 --N 30 --policy inverse-smoothness --seed 0",
    "geometry-check --d 6 --source random --seed 0",
    "geometry-check --d 8 --source prime --seed 0",
    "recovery --d 4 --m 16 --seed 0",
]

_EDGES = [
    "gd-run --objective population",
    "gd-run --policy fixed --eta 0.001",
    "gd-run --mhat 12",
    "gd-run --dist rademacher",
    "gd-run --teacher-dist gaussian(1e76) --d 2 --m 3",  # stalls at iteration 0
    "gd-run --d 3 --m 12 --N 30 --policy fixed --eta 1",  # diverges, exit 1
]

ARGVS = _README + _BENCHMARK + _EDGES


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest_bytes(path: Path) -> bytes:
    manifest = json.loads(path.read_text())
    manifest.pop("timestamp")
    manifest["config"].pop("out")
    return json.dumps(manifest, sort_keys=True, indent=2).encode()


def run_one(argv: str, out: Path) -> dict:
    """Exit code and file digests of one argv run into out."""
    from quadland.cli import main

    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv.split() + ["--out", str(out)])
    if code != 0:
        return {"exit": code, "stderr": stderr.getvalue()}
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            files[path.name] = _sha256(_manifest_bytes(path))
        elif path.name in ("results.jsonl", "summary.json") or path.suffix == ".csv":
            files[path.name] = _sha256(path.read_bytes())
    return {"exit": code, "files": files}


def compute(root: Path) -> dict:
    return {argv: run_one(argv, root / str(k)) for k, argv in enumerate(ARGVS)}


def moved(want: dict, got: dict) -> list[str]:
    """One line per argv whose record differs, naming the files that moved."""
    lines = []
    for argv in sorted(set(want) | set(got)):
        a, b = want.get(argv), got.get(argv)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{argv}: {'not in the digest file' if a is None else 'no longer run'}")
        elif a["exit"] != b["exit"] or "files" not in a:
            lines.append(f"{argv}: recorded {a}, got {b}")
        else:
            names = sorted(n for n in set(a["files"]) | set(b["files"])
                           if a["files"].get(n) != b["files"].get(n))
            lines.append(f"{argv}: {', '.join(names)} moved")
    return lines


def test_artifacts_match_committed_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("QUADLAND_SEED", raising=False)
    committed = json.loads(DIGESTS.read_text())
    lines = moved(committed["digests"], compute(tmp_path))
    if lines and committed["versions"] != versions():
        lines.append(f"the digests were recorded under {committed['versions']}, "
                     f"this run has {versions()}")
    assert not lines, "artifacts moved:\n" + "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_artifact_digests.py --write")
    os.environ.pop("QUADLAND_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute(Path(tmp))
    DIGESTS.write_text(json.dumps({"versions": versions(), "digests": digests},
                                  indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
