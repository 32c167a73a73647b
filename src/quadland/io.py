"""File formats shared by every command.

Matrix CSV: first line `# rows=<m> cols=<d>`, then row-major CSV with
17 significant digits (lossless float64 round trip).

Dataset CSV: first line `# n=<N> d=<d> dist=<tag> seed=<u64>`, then a
column-name line `x1,...,xd[,label]`, then one row per sample.

Reports are JSON with sorted keys; sweeps are JSON lines, one record per
trial. Every command directory gets a manifest.json echoing the resolved
configuration; its `timestamp` field is the only non-reproducible byte.
"""

from __future__ import annotations

import json
import re
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import InvalidArgument

SCHEMA_VERSION = 1

_FLOAT_FMT = "%.17g"


def _csv_rows(matrix: np.ndarray) -> str:
    """Every row as `%.17g` values joined by commas, formatted in one `%`."""
    m, d = matrix.shape
    row = ",".join([_FLOAT_FMT] * d) + "\n"
    return (row * m) % tuple(matrix.ravel().tolist())


def write_matrix(path, matrix) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    m, d = matrix.shape
    with open(path, "w") as fh:
        fh.write(f"# rows={m} cols={d}\n")
        fh.write(_csv_rows(matrix))


_MATRIX_HEADER = re.compile(r"^#\s*rows=(\d+)\s+cols=(\d+)\s*$")


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline()
        m = _MATRIX_HEADER.match(header)
        if not m:
            raise InvalidArgument(f"{path}: missing '# rows=.. cols=..' header")
        rows, cols = int(m.group(1)), int(m.group(2))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (rows, cols):
        raise InvalidArgument(
            f"{path}: header says {rows}x{cols}, found {data.shape[0]}x{data.shape[1]}"
        )
    return data


def write_dataset(path, dataset: Dataset) -> None:
    with open(path, "w") as fh:
        fh.write(
            f"# n={dataset.n} d={dataset.d} dist={dataset.distribution_tag} "
            f"seed={dataset.seed}\n"
        )
        names = [f"x{k + 1}" for k in range(dataset.d)]
        if dataset.labeled:
            names.append("label")
        fh.write(",".join(names) + "\n")
        rows = dataset.inputs
        if dataset.labeled:
            rows = np.column_stack((rows, dataset.labels))
        fh.write(_csv_rows(rows))


_DATASET_HEADER = re.compile(r"^#\s*n=(\d+)\s+d=(\d+)\s+dist=(\S+)\s+seed=(\d+)\s*$")


def read_dataset(path) -> Dataset:
    with open(path) as fh:
        header = fh.readline()
        m = _DATASET_HEADER.match(header)
        if not m:
            raise InvalidArgument(f"{path}: missing '# n=.. d=.. dist=.. seed=..' header")
        n, d, tag, seed = int(m.group(1)), int(m.group(2)), m.group(3), int(m.group(4))
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    labeled = names[-1] == "label"
    expect_cols = d + 1 if labeled else d
    if data.shape != (n, expect_cols):
        raise InvalidArgument(f"{path}: header says {n} rows x {expect_cols} cols, found {data.shape}")
    inputs = data[:, :d]
    labels = data[:, d] if labeled else None
    return Dataset(inputs=inputs, labels=labels, distribution_tag=tag, seed=seed)


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_jsonl(path, records) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


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
