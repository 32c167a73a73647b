"""File formats shared by every command.

Matrix CSV: first line `# rows=<m> cols=<d>`, then row-major CSV with
17 significant digits (lossless float64 round trip).

Reports are JSON with sorted keys; sweeps are JSON lines, one record per
trial. Every command directory gets a manifest.json echoing the resolved
configuration; its `timestamp` field is the only non-reproducible byte.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

def write_matrix(path, matrix) -> None:
    """Every row as `%.17g` values joined by commas, formatted in one `%`."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    m, d = matrix.shape
    row = ",".join(["%.17g"] * d) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# rows={m} cols={d}\n")
        fh.write((row * m) % tuple(matrix.ravel().tolist()))


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_jsonl(path, records) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_manifest(directory, command: str, config: dict) -> Path:
    """Manifest with schema version and resolved config; timestamp isolated
    in its own field so the rest of the file is byte-reproducible."""
    path = Path(directory) / "manifest.json"
    write_json(
        path,
        {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": config,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    )
    return path
