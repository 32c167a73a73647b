"""Seeded dataset generation and teacher labeling.

Datasets are N x d matrices of i.i.d. draws with i.i.d. centered
coordinates. Generation is fully determined by (distribution, n, d, seed);
see _rng for the stream discipline that makes this hold across platforms.
The rows are drawn in order, so the first n rows of an (n + k)-row draw are
the n-row draw. Labels are the teacher's outputs ||W* X_i||^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _rng
from .errors import InvalidArgument
from .model import Distribution, TeacherModel, TensorizedDesign

# Substream IDs so data and teacher draws at the same seed stay independent.
DATA_SUBSTREAM = 0
TEACHER_SUBSTREAM = 1


@dataclass(frozen=True)
class Dataset:
    """Immutable sample: inputs (N x d), optional labels, sampling origin."""

    inputs: np.ndarray
    labels: np.ndarray | None
    distribution_tag: str
    seed: int

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        if x.ndim != 2 or x.shape[0] < 1:
            raise InvalidArgument("inputs must be a nonempty N x d matrix")
        if not np.all(np.isfinite(x)):
            raise InvalidArgument("inputs must be finite")
        x = x.copy()
        x.setflags(write=False)
        object.__setattr__(self, "inputs", x)
        if self.labels is not None:
            y = np.asarray(self.labels, dtype=float).reshape(-1).copy()
            if y.shape[0] != x.shape[0]:
                raise InvalidArgument("labels must have one entry per sample")
            if not np.all(np.isfinite(y)):
                raise InvalidArgument("labels must be finite")
            y.setflags(write=False)
            object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    @property
    def labeled(self) -> bool:
        return self.labels is not None

    @cached_property
    def design(self) -> TensorizedDesign:
        """The tensorized inputs, built on first use and shared by labeling,
        descent and every geometry routine. The inputs are frozen, so the
        cache cannot go stale."""
        return TensorizedDesign(self.inputs)


def sample_dataset(distribution: Distribution, n: int, d: int, seed: int) -> Dataset:
    """Draw an unlabeled N x d dataset, deterministic per seed."""
    if n < 1 or d < 1:
        raise InvalidArgument("need n >= 1 and d >= 1")
    gen = _rng.stream(seed, DATA_SUBSTREAM)
    inputs = distribution.sample(gen, (n, d))
    return Dataset(inputs=inputs, labels=None, distribution_tag=distribution.tag, seed=seed)


def label_dataset(dataset: Dataset, teacher: TeacherModel) -> Dataset:
    """Attach labels Y_i = ||W* X_i||^2 = X_i^T G* X_i.

    The labels come through the upper coordinates of the teacher Gram G*, by
    the same arithmetic that evaluates students (TensorizedDesign.gram_forms),
    so a student equal to the teacher has exactly zero residual.
    """
    if dataset.d != teacher.d:
        raise InvalidArgument(
            f"dimension mismatch: data d={dataset.d}, teacher d={teacher.d}"
        )
    labeled = Dataset(
        inputs=dataset.inputs,
        labels=dataset.design.gram_forms(teacher.weights),
        distribution_tag=dataset.distribution_tag,
        seed=dataset.seed,
    )
    if "design" in vars(dataset):
        # the inputs are equal and frozen, so the design built for the labels
        # serves the labeled dataset too; cached_property stores it the same way
        vars(labeled)["design"] = dataset.design
    return labeled
