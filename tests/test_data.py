import numpy as np
import pytest
from scipy.special import ndtri

from quadland import (
    Dataset,
    Gaussian,
    InvalidArgument,
    Rademacher,
    TeacherModel,
    Uniform,
    empirical_risk,
    label_dataset,
    parse_distribution,
    sample_dataset,
)
from quadland import _rng
from quadland.model import StudentWeights

import oracles


@pytest.mark.parametrize("law", [Gaussian(1.0), Uniform(2.0), Rademacher()])
@pytest.mark.parametrize("n, k", [(1, 1), (5, 1), (35, 1), (9, 27)])
def test_rows_are_drawn_in_order(law, n, k):
    # an n-row dataset is the first n rows of the (n + k)-row draw at its
    # seed, which lets span_sweep draw each trial once for all its counts
    for d in (1, 3, 8):
        short = sample_dataset(law, n, d, seed=17).inputs
        long = sample_dataset(law, n + k, d, seed=17).inputs
        assert np.array_equal(short, long[:n])


def test_sampling_is_deterministic():
    a = sample_dataset(Gaussian(1.0), 5, 3, seed=7)
    b = sample_dataset(Gaussian(1.0), 5, 3, seed=7)
    assert np.array_equal(a.inputs, b.inputs)
    c = sample_dataset(Gaussian(1.0), 5, 3, seed=8)
    assert not np.array_equal(a.inputs, c.inputs)


def test_uniforms_are_the_53_bit_integers_scaled_exactly():
    # scaling by 2^-53 is exact, so every uniform (and every inverse-CDF
    # normal drawn from it) is the integer draw divided by 2^53
    shape = (400, 40)
    ints = _rng.stream(5, 1).integers(1, 2 ** 53, size=shape)
    want = ints.astype(np.float64) / float(2 ** 53)
    assert np.array_equal(_rng.open_uniform(_rng.stream(5, 1), shape), want)
    assert np.array_equal(_rng.standard_normal(_rng.stream(5, 1), shape), ndtri(want))


def test_substream_normals_are_each_substreams_own_draws():
    # the one re-keyed generator must start every row where a fresh stream
    # starts, at both ends of the 64-bit seed and substream ranges
    for seed, substreams, count in [(0, range(1000, 1013), 22), (2 ** 64 - 1, range(5, 7), 1),
                                    (7, range(2 ** 64 - 3, 2 ** 64), 9)]:
        want = np.array([_rng.standard_normal(_rng.stream(seed, s), count) for s in substreams])
        assert np.array_equal(_rng.substream_normals(seed, substreams, count), want)
    with pytest.raises(InvalidArgument, match="64 unsigned bits"):
        _rng.substream_normals(0, range(2 ** 64 - 1, 2 ** 64 + 1), 3)


def test_rademacher_entries_are_signs():
    data = sample_dataset(Rademacher(), 200, 4, seed=1)
    assert set(np.unique(data.inputs)) <= {-1.0, 1.0}


def test_gaussian_large_sample_moments():
    data = sample_dataset(Gaussian(1.0), 10 ** 6, 1, seed=3)
    x = data.inputs[:, 0]
    assert abs(x.mean()) < 0.01
    m4, se = oracles.mc_estimate(x ** 4)
    assert abs(m4 - 3.0) <= 3 * se


def test_labels_zero_teacher():
    data = sample_dataset(Gaussian(1.0), 10, 2, seed=0)
    labeled = label_dataset(data, TeacherModel(np.zeros((3, 2))))
    assert np.array_equal(labeled.labels, np.zeros(10))


def test_labels_identity_teacher_are_squared_norms():
    data = sample_dataset(Gaussian(1.0), 20, 3, seed=2)
    labeled = label_dataset(data, TeacherModel(np.eye(3)))
    assert np.allclose(labeled.labels, np.sum(data.inputs ** 2, axis=1), rtol=1e-12)


def test_labels_match_forward_oracle():
    rng = np.random.default_rng(11)
    W = rng.standard_normal((4, 3))
    teacher = TeacherModel(W)
    data = sample_dataset(Gaussian(1.0), 15, 3, seed=4)
    labeled = label_dataset(data, teacher)
    for i in range(15):
        want = oracles.forward_loop(W, data.inputs[i])
        assert labeled.labels[i] == pytest.approx(want, rel=1e-12)
    assert np.all(labeled.labels >= 0)


def test_label_dimension_mismatch_rejected():
    data = sample_dataset(Gaussian(1.0), 5, 3, seed=0)
    with pytest.raises(InvalidArgument):
        label_dataset(data, TeacherModel(np.eye(2)))


def test_teacher_risk_on_own_labels_is_zero():
    rng = np.random.default_rng(12)
    W = rng.standard_normal((5, 3))
    teacher = TeacherModel(W)
    labeled = label_dataset(sample_dataset(Gaussian(1.0), 50, 3, seed=5), teacher)
    assert empirical_risk(StudentWeights(W), labeled) <= 1e-20


def test_dataset_requires_samples_and_finite_inputs():
    with pytest.raises(InvalidArgument):
        Dataset(inputs=np.zeros((0, 2)), labels=None, distribution_tag="x", seed=0)
    with pytest.raises(InvalidArgument):
        Dataset(
            inputs=np.array([[np.nan, 1.0]]),
            labels=None,
            distribution_tag="x",
            seed=0,
        )


def test_distribution_tag_round_trips_through_parser():
    data = sample_dataset(Gaussian(2.0), 3, 2, seed=9)
    law = parse_distribution(data.distribution_tag)
    assert law == Gaussian(2.0)
