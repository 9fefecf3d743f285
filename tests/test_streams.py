"""A block's trajectory streams, derived at once, against trajectory_rng.

``draw_block`` derives every row's PCG64 starting state from (master seed,
index) the way ``SeedSequence(master_seed, spawn_key=(index,))`` seeds it,
and draws each row from one generator set to that state. The oracle is the
public scalar path: one ``trajectory_rng`` per row, errors through
``sample_errors_counted``, then the row's clean-out uniforms.
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
from heraldsim import noise
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
    # Runs that start near 0, before a 64-row boundary, or before 2**32.
    st.sampled_from((0, 60, 2**32 - 70)),
    st.integers(0, 70),
    st.integers(1, 130),
    MODELS,
    st.integers(1, 6),
    st.integers(0, 8),
)
def test_rows_match_trajectory_rng(seed, k, base, offset, n, model, n_steps, n_uniforms):
    if seed == 2**128:
        seed += k
    indices = range(base + offset, base + offset + n)
    errors, clamps, uniforms = draw_block(model, n_steps, seed, indices, n_uniforms)
    assert errors.shape == (n, n_steps) and uniforms.shape == (n, n_uniforms)
    for row, i in enumerate(indices):
        rng = trajectory_rng(seed, i)
        expected, n_clamped = sample_errors_counted(model, n_steps, rng)
        assert np.array_equal(errors[row], expected)
        assert clamps[row] == n_clamped
        assert np.array_equal(uniforms[row], rng.random(n_uniforms))


def test_fixed_model_without_uniforms_takes_no_stream(monkeypatch):
    def refuse(*args):
        raise AssertionError("a stream was derived")

    monkeypatch.setattr(noise, "_stream_states", refuse)
    model = AmplitudeErrorModel.linear_drift(0.1, 0.02)
    errors, clamps, uniforms = draw_block(model, 3, 5, range(4))
    assert errors.tolist() == [sample_errors(model, 3, None)] * 4
    assert clamps.tolist() == [0] * 4 and uniforms.shape == (4, 0)


@pytest.mark.parametrize("seed,error", [(-1, ValueError), (5.0, TypeError)])
def test_seeds_that_seed_sequence_refuses_are_refused(seed, error):
    # Seed 5 is drawn first, so 5.0 must not pass through its cached pool.
    draw_block(AmplitudeErrorModel.gaussian_iid(0.1), 2, 5, range(2))
    with pytest.raises(error):
        trajectory_rng(seed, 0)
    with pytest.raises(error):
        draw_block(AmplitudeErrorModel.gaussian_iid(0.1), 2, seed, range(2))


def test_a_changed_seeding_fails_loudly(monkeypatch):
    # A derivation that no longer matches numpy's seeding must stop the run
    # rather than change every stream.
    monkeypatch.setattr(noise, "_MIX_L", noise._MIX_L + 2)
    noise._check_stream_states.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="seeds trajectory streams differently"):
            draw_block(AmplitudeErrorModel.gaussian_iid(0.1), 2, 1, range(3))
    finally:
        noise._check_stream_states.cache_clear()


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
