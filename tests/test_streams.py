"""A block's trajectory streams, drawn from one generator, against trajectory_rng.

Trajectory i's stream is a Philox keyed by the master seed with i in words
2-3 of its counter. ``draw_block`` takes the Philox its thread keeps for
the seed (built once per thread and seed) and sets its counter to each
row's stream in turn. The oracle is the public scalar path: one
``trajectory_rng`` per row, errors through ``sample_errors_counted``, then
the row's clean-out uniforms.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heraldsim
from heraldsim.noise import (
    AmplitudeErrorModel,
    draw_block,
    sample_errors,
    sample_errors_counted,
    trajectory_rng,
)

# Seeds of one, two, three and five 32-bit words; 2**128 gets a random
# offset k below.
SEEDS = (0, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**128, 10**40)
# sigma up to 4 clamps at +-pi in most draws.
MODELS = st.one_of(
    st.builds(AmplitudeErrorModel.constant, st.floats(-4.0, 4.0)),
    st.builds(AmplitudeErrorModel.gaussian_iid, st.floats(0.0, 4.0)),
    st.builds(
        AmplitudeErrorModel.linear_drift, st.floats(-4.0, 4.0), st.floats(-2.0, 2.0)
    ),
    st.builds(AmplitudeErrorModel.random_walk, st.floats(0.0, 4.0), st.floats(-1.0, 1.0)),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.sampled_from(SEEDS),
    st.integers(0, 2**40),
    # Runs that start near 0, before a 64-row boundary, before 2**32, or
    # before 2**64, where the index carries into counter word 3.
    st.sampled_from((0, 60, 2**32 - 70, 2**64 - 70)),
    st.integers(0, 70),
    st.integers(1, 130),
    MODELS,
    st.integers(1, 6),
    st.integers(0, 8),
)
def test_rows_match_trajectory_rng(seed, k, base, offset, n, model, n_steps, n_uniforms):
    if seed == 2**128:
        seed += k
    assert_rows_match(model, n_steps, seed, range(base + offset, base + offset + n), n_uniforms)


def assert_rows_match(model, n_steps, seed, indices, n_uniforms):
    """Each row of the block equals its own stream's draws bit for bit:
    bytes, not ==, so a -0.0 where the stream gives +0.0 fails."""
    errors, clamps, uniforms = draw_block(model, n_steps, seed, indices, n_uniforms)
    n = len(indices)
    assert errors.shape == (n, n_steps) and uniforms.shape == (n, n_uniforms)
    for row, i in enumerate(indices):
        rng = trajectory_rng(seed, i)
        expected, n_clamped = sample_errors_counted(model, n_steps, rng)
        assert errors[row].tobytes() == np.array(expected).tobytes()
        assert clamps[row] == n_clamped
        assert uniforms[row].tobytes() == rng.random(n_uniforms).tobytes()


@pytest.mark.parametrize(
    "indices", [[9, 2, 5], [2**64 + 1, 0, 2**64 - 1, 7], [4, 4, 3]], ids=str
)
@pytest.mark.parametrize(
    "model",
    [AmplitudeErrorModel.gaussian_iid(0.7), AmplitudeErrorModel.random_walk(0.3, 0.1)],
    ids=lambda model: model.kind,
)
def test_unordered_rows_match_trajectory_rng(indices, model):
    # The block's range is checked on its smallest and largest index only;
    # every row still draws from its own index's stream.
    assert_rows_match(model, 3, 11, indices, 2)


def test_a_zero_sigma_draws_positive_zeros():
    # numpy's normal(0.0, 0.0) is 0.0 + 0.0 * z: +0.0 for every draw z,
    # though 0.0 * z alone is -0.0 for about half of them.
    model = AmplitudeErrorModel.gaussian_iid(0.0)
    assert_rows_match(model, 8, 3, range(4), 0)
    assert draw_block(model, 8, 3, range(4))[0].tobytes() == np.zeros((4, 8)).tobytes()


def test_fixed_model_without_uniforms_takes_no_stream(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(np.random, "Philox", refuse)
    model = AmplitudeErrorModel.linear_drift(0.1, 0.02)
    errors, clamps, uniforms = draw_block(model, 3, 5, range(4))
    assert errors.tolist() == [sample_errors(model, 3, None)] * 4
    assert clamps.tolist() == [0] * 4 and uniforms.shape == (4, 0)


@pytest.mark.parametrize("seed,error", [(-1, ValueError), (5.0, TypeError)])
def test_seeds_that_seed_sequence_refuses_are_refused(seed, error):
    # Seed 5 is drawn first: a seed that numpy refuses stays refused after
    # a valid draw, and 5.0 is not taken for the seed 5 it equals.
    draw_block(AmplitudeErrorModel.gaussian_iid(0.1), 2, 5, range(2))
    with pytest.raises(error):
        trajectory_rng(seed, 0)
    with pytest.raises(error):
        draw_block(AmplitudeErrorModel.gaussian_iid(0.1), 2, seed, range(2))


@pytest.mark.parametrize("index", [-1, 2**128, 2**200])
def test_indices_outside_the_counter_are_refused(index):
    with pytest.raises(ValueError, match="trajectory index"):
        trajectory_rng(1, index)
    with pytest.raises(ValueError, match="trajectory index"):
        draw_block(AmplitudeErrorModel.gaussian_iid(0.1), 2, 1, [0, index])
    # Not only the last row: a bad index in the middle refuses the block.
    with pytest.raises(ValueError, match="trajectory index"):
        draw_block(AmplitudeErrorModel.gaussian_iid(0.1), 2, 1, [0, index, 1])


def test_the_last_index_has_its_own_stream():
    model, last = AmplitudeErrorModel.gaussian_iid(0.1), 2**128 - 1
    errors, _, uniforms = draw_block(model, 2, 1, [0, last], 1)
    rng = trajectory_rng(1, last)
    assert errors[1].tolist() == sample_errors(model, 2, rng)
    assert uniforms[1, 0] == rng.random()
    assert not np.array_equal(errors[0], errors[1])


def test_an_index_is_taken_by_value():
    # A numpy integer shifted into the counter's upper words would wrap.
    assert trajectory_rng(1, np.int64(5)).random() == trajectory_rng(1, 5).random()
    model = AmplitudeErrorModel.gaussian_iid(0.1)
    assert np.array_equal(
        draw_block(model, 2, 1, np.arange(3, 6))[0], draw_block(model, 2, 1, range(3, 6))[0]
    )
    with pytest.raises(TypeError):
        trajectory_rng(1, 5.0)


def test_building_a_spec_loads_no_numpy_random():
    # The block generator is made on first draw, so importing heraldsim and
    # building a spec stay as cheap as they were.
    code = (
        "import sys, heraldsim as h\n"
        "h.ExperimentSpec(protocol='single', "
        "error_model=h.AmplitudeErrorModel.gaussian_iid(0.1), "
        "input_state=h.InputSpec('plus_n'), trials=10, master_seed=1, "
        "gate=h.GateSpec(h.BlochAxis(1.0, 0.5), 2.0), mode='mc')\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(heraldsim.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
