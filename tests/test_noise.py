import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heraldsim.noise import (
    AmplitudeErrorModel,
    rms,
    sample_errors,
    sample_errors_counted,
    trajectory_rng,
)


class TestModels:
    def test_constant(self):
        rng = np.random.default_rng(0)
        assert sample_errors(AmplitudeErrorModel.constant(0.1), 4, rng) == [0.1] * 4

    def test_linear_drift(self):
        rng = np.random.default_rng(0)
        out = sample_errors(AmplitudeErrorModel.linear_drift(0.0, 0.01), 4, rng)
        np.testing.assert_allclose(out, [0.0, 0.01, 0.02, 0.03], atol=1e-15)

    def test_gaussian_statistics(self):
        sigma = 0.05
        rng = np.random.default_rng(99)
        draws = np.array(
            sample_errors(AmplitudeErrorModel.gaussian_iid(sigma), 100_000, rng)
        )
        # For a random seed the mean check fails with probability 2.7e-3
        # (two-sided 3 sigma, and the mean of normal draws is normal). The
        # std check allows 8.9 standard errors of a sample std (sigma /
        # sqrt(2n)), so it fails with probability about 4e-19.
        assert abs(draws.mean()) < 3 * sigma / math.sqrt(draws.size)
        assert abs(draws.std() - sigma) < 0.02 * sigma

    def test_random_walk_accumulates(self):
        rng = np.random.default_rng(5)
        walk = sample_errors(AmplitudeErrorModel.random_walk(0.01, start=0.2), 100, rng)
        rng2 = np.random.default_rng(5)
        increments = rng2.normal(0.0, 0.01, size=100)
        np.testing.assert_allclose(walk, 0.2 + np.cumsum(increments), atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AmplitudeErrorModel("telegraph")

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            AmplitudeErrorModel.gaussian_iid(-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["value", "sigma", "slope"])
    def test_non_finite_parameter(self, field, bad):
        with pytest.raises(ValueError):
            AmplitudeErrorModel("linear_drift", **{field: bad})

    def test_n_steps_validation(self):
        with pytest.raises(ValueError):
            sample_errors(AmplitudeErrorModel.constant(0.0), 0, np.random.default_rng(0))


class TestClamping:
    def test_values_stay_inside_open_interval(self):
        rng = np.random.default_rng(1)
        values, n_clamped = sample_errors_counted(
            AmplitudeErrorModel.gaussian_iid(10.0), 1000, rng
        )
        assert all(abs(v) < math.pi for v in values)
        assert n_clamped > 0

    def test_no_clamps_at_sane_sigma(self):
        rng = np.random.default_rng(1)
        _, n_clamped = sample_errors_counted(
            AmplitudeErrorModel.gaussian_iid(0.05), 10_000, rng
        )
        assert n_clamped == 0

    def test_constant_clamped_and_counted(self):
        rng = np.random.default_rng(0)
        values, n_clamped = sample_errors_counted(
            AmplitudeErrorModel.constant(4.0), 3, rng
        )
        assert n_clamped == 3
        assert all(abs(v) < math.pi for v in values)

    @given(st.floats(0.0, 0.5), st.integers(1, 20))
    def test_sequence_length(self, sigma, n):
        rng = np.random.default_rng(0)
        assert len(sample_errors(AmplitudeErrorModel.gaussian_iid(sigma), n, rng)) == n


class TestReproducibility:
    def test_same_seed_same_sequence(self):
        model = AmplitudeErrorModel.random_walk(0.02, 0.0)
        a = sample_errors(model, 16, trajectory_rng(42, 7))
        b = sample_errors(model, 16, trajectory_rng(42, 7))
        assert a == b

    def test_different_indices_differ(self):
        model = AmplitudeErrorModel.gaussian_iid(0.1)
        a = sample_errors(model, 8, trajectory_rng(42, 0))
        b = sample_errors(model, 8, trajectory_rng(42, 1))
        assert a != b

    def test_split_independent_of_enumeration_order(self):
        model = AmplitudeErrorModel.gaussian_iid(0.1)
        forward = [sample_errors(model, 2, trajectory_rng(9, i)) for i in range(10)]
        backward = [
            sample_errors(model, 2, trajectory_rng(9, i)) for i in reversed(range(10))
        ]
        assert forward == backward[::-1]


def test_rms():
    assert rms([0.3, -0.3]) == pytest.approx(0.3, abs=1e-15)
    assert rms([]) == 0.0
    assert rms([1.0, 0.0]) == pytest.approx(math.sqrt(0.5), abs=1e-15)
