"""Trajectory draws in 64-row RNG blocks.

RNG block b of a run is a Philox keyed by the master seed with b in words
2-3 of its counter. One fill gives the block's normals and one, with a tag
bit in word 3, its clean-out uniforms; both are column-major, so draw k of
the block's row r is entry ``k * 64 + r``. The tests here hold the contract
that follows: a row's draws do not depend on how its indices are split
into kernel blocks, on their order or on the worker count, and
``trajectory_rng(seed, i)`` read as the scalar path reads it (errors
through ``sample_errors_counted``, then one ``random(1)`` per clean-out)
gives row i of ``draw_block``.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heraldsim
from heraldsim import experiments
from heraldsim.experiments import ExperimentSpec, InputSpec
from heraldsim.noise import (
    RNG_ROWS,
    AmplitudeErrorModel,
    draw_block,
    sample_errors_counted,
    trajectory_rng,
)
from heraldsim.protocols import GateSpec
from heraldsim.statespace import BlochAxis

# Seeds of one, two, three and five 32-bit words; 2**128 gets a random
# offset k below.
SEEDS = (0, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**128, 10**40)
# Runs that start near 0, before a 64-row boundary, before 2**32 and 2**64,
# before 2**70, where the block index carries into counter word 3, and
# before the last index, 2**128 - 1.
BASES = (0, 60, 2**32 - 70, 2**64 - 70, 2**70 - 70, 2**128 - 201)
# sigma up to 4 clamps at +-pi in most draws.
MODELS = st.one_of(
    st.builds(AmplitudeErrorModel.constant, st.floats(-4.0, 4.0)),
    st.builds(AmplitudeErrorModel.gaussian_iid, st.floats(0.0, 4.0)),
    st.builds(
        AmplitudeErrorModel.linear_drift, st.floats(-4.0, 4.0), st.floats(-2.0, 2.0)
    ),
    st.builds(AmplitudeErrorModel.random_walk, st.floats(0.0, 4.0), st.floats(-1.0, 1.0)),
)


def assert_same_bytes(got, want):
    """Bytes, not ==, so a -0.0 where the other side gives +0.0 fails."""
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.sampled_from(SEEDS),
    st.integers(0, 2**40),
    st.sampled_from(BASES),
    st.integers(0, 70),
    st.integers(1, 130),
    st.lists(st.integers(1, 129), max_size=4),
    MODELS,
    st.integers(1, 6),
    st.integers(0, 8),
    st.randoms(use_true_random=False),
)
def test_draws_do_not_depend_on_the_block_split(
    seed, k, base, offset, n, cuts, model, n_steps, n_uniforms, random
):
    if seed == 2**128:
        seed += k
    indices = range(base + offset, base + offset + n)
    whole = draw_block(model, n_steps, seed, indices, n_uniforms)
    assert whole[0].shape == (n, n_steps) and whole[2].shape == (n, n_uniforms)
    # Kernel blocks cut anywhere, inside a 64-row RNG block or across one.
    bounds = sorted({0, n, *(c for c in cuts if c < n)})
    parts = [
        draw_block(model, n_steps, seed, indices[a:b], n_uniforms)
        for a, b in zip(bounds, bounds[1:])
    ]
    assert_same_bytes([np.concatenate(col) for col in zip(*parts)], whole)
    # The same rows in another order, and one row alone, as
    # enumerate_trajectory draws it.
    order = list(range(n))
    random.shuffle(order)
    shuffled = draw_block(model, n_steps, seed, [indices[j] for j in order], n_uniforms)
    assert_same_bytes(shuffled, [col[order] for col in whole])
    j = random.randrange(n)
    alone = draw_block(model, n_steps, seed, [indices[j]], n_uniforms)
    assert_same_bytes(alone, [col[j : j + 1] for col in whole])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.sampled_from(SEEDS),
    st.sampled_from(BASES),
    st.integers(0, 200),
    MODELS,
    st.integers(1, 6),
    st.integers(0, 9),
)
def test_a_row_view_replays_its_row(seed, base, offset, model, n_steps, n_uniforms):
    # What perfbench's mirror and the scalar oracles do: the row's errors,
    # then one uniform per clean-out, one call at a time. Every kind of
    # model is covered, including the two that draw no normals.
    index = base + offset
    errors, clamps, uniforms = draw_block(model, n_steps, seed, [index], n_uniforms)
    rng = trajectory_rng(seed, index)
    expected, n_clamped = sample_errors_counted(model, n_steps, rng)
    assert errors[0].tobytes() == np.array(expected).tobytes()
    assert clamps[0] == n_clamped
    drawn = [rng.random(1) if k % 2 else np.array([rng.random()]) for k in range(n_uniforms)]
    assert np.array(drawn).reshape(-1).tobytes() == uniforms[0].tobytes()
    # The view's normals are the row's first ones, however often it is asked.
    if model.draws_random:
        first = rng.standard_normal(n_steps + 3)
        assert rng.standard_normal(n_steps).tobytes() == first[:n_steps].tobytes()


@pytest.mark.parametrize(
    "indices", [[9, 2, 5], [2**64 + 1, 0, 2**64 - 1, 7], [4, 4, 3]], ids=str
)
@pytest.mark.parametrize(
    "model",
    [AmplitudeErrorModel.gaussian_iid(0.7), AmplitudeErrorModel.random_walk(0.3, 0.1)],
    ids=lambda model: model.kind,
)
def test_unordered_rows_match_trajectory_rng(indices, model):
    # Scattered, repeated and out-of-order indices: RNG blocks far apart
    # (one each side of 2**64) are drawn in one call, a repeated index
    # gives its row twice, and every row is still its own row view.
    errors, clamps, uniforms = draw_block(model, 3, 11, indices, 2)
    assert errors.shape == (len(indices), 3) and uniforms.shape == (len(indices), 2)
    for row, index in enumerate(indices):
        rng = trajectory_rng(11, index)
        expected, n_clamped = sample_errors_counted(model, 3, rng)
        assert errors[row].tobytes() == np.array(expected).tobytes()
        assert clamps[row] == n_clamped
        drawn = np.concatenate([rng.random(1), rng.random(1)])
        assert uniforms[row].tobytes() == drawn.tobytes()


def test_a_block_is_one_column_major_fill_of_its_counter():
    # The layout itself, against numpy's Philox set by hand: RNG block b
    # has b in counter words 2-3, its uniforms also bit 63 of word 3, and
    # draw k of row r is entry k * 64 + r of the fill. The last block's
    # words 2 and 3 are 2**64 - 1 and 2**58 - 1.
    for block in (2**64 + 5, 2**122 - 1):
        indices = range(block * RNG_ROWS, (block + 1) * RNG_ROWS)
        errors, _, uniforms = draw_block(AmplitudeErrorModel.gaussian_iid(1e-3), 3, 9, indices, 2)

        def fill(tag, draw, n):
            words = np.array([0, 0, block % 2**64, block >> 64 | tag], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(9, counter=words))
            return getattr(gen, draw)(n * RNG_ROWS).reshape(n, RNG_ROWS).T

        assert errors.tobytes() == (0.0 + 1e-3 * fill(0, "standard_normal", 3)).tobytes()
        assert uniforms.tobytes() == fill(1 << 63, "random", 2).tobytes()


def test_columns_do_not_depend_on_the_worker_count():
    # 201 trials: the workers' bounds (67 and 134 at 3 workers, 100 at 2)
    # fall inside RNG blocks, whose rows two workers then both draw.
    spec = ExperimentSpec(
        protocol="single",
        error_model=AmplitudeErrorModel.random_walk(0.3, 0.1),
        input_state=InputSpec("plus_n"),
        trials=201,
        master_seed=2**64 + 3,
        gate=GateSpec(BlochAxis(1.0, 0.5), 2.0),
        selectivity=0.9,
        mode="mc",
    )
    assert spec.trials % RNG_ROWS
    columns = [experiments._run_rows(spec, workers) for workers in (1, 2, 3)]
    for other in columns[1:]:
        assert other.sites == columns[0].sites
        assert_same_bytes(other[1:], columns[0][1:])


def test_a_zero_sigma_draws_positive_zeros():
    # numpy's normal(0.0, 0.0) is 0.0 + 0.0 * z: +0.0 for every draw z,
    # though 0.0 * z alone is -0.0 for about half of them.
    model = AmplitudeErrorModel.gaussian_iid(0.0)
    assert draw_block(model, 8, 3, range(4))[0].tobytes() == np.zeros((4, 8)).tobytes()
    errors, _ = sample_errors_counted(model, 8, trajectory_rng(3, 1))
    assert np.array(errors).tobytes() == np.zeros(8).tobytes()


def test_fixed_model_without_uniforms_takes_no_stream(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(np.random, "Philox", refuse)
    model = AmplitudeErrorModel.linear_drift(0.1, 0.02)
    errors, clamps, uniforms = draw_block(model, 3, 5, range(4))
    assert errors.tolist() == [[0.1, 0.12000000000000001, 0.14]] * 4
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
    model = AmplitudeErrorModel.gaussian_iid(0.1)
    with pytest.raises(ValueError, match="trajectory index"):
        trajectory_rng(1, index)
    with pytest.raises(ValueError, match="trajectory index"):
        draw_block(model, 2, 1, [0, index])
    # Not only the last row: a bad index in the middle refuses the block.
    with pytest.raises(ValueError, match="trajectory index"):
        draw_block(model, 2, 1, [0, index, 1])


@pytest.mark.parametrize("indices", [range(-1, 2), range(2**128 - 2, 2**128 + 1)], ids=str)
def test_a_run_of_indices_is_checked_at_both_ends(indices):
    with pytest.raises(ValueError, match="trajectory index"):
        draw_block(AmplitudeErrorModel.gaussian_iid(0.1), 2, 1, indices)


def test_the_last_index_has_its_own_stream():
    model, last = AmplitudeErrorModel.gaussian_iid(0.1), 2**128 - 1
    errors, _, uniforms = draw_block(model, 2, 1, [0, last], 1)
    rng = trajectory_rng(1, last)
    assert errors[1].tolist() == sample_errors_counted(model, 2, rng)[0]
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


def test_block_draws_keep_their_distribution():
    # 64 000 normals from 1 000 RNG blocks, read in row order. Each check
    # allows 5 standard errors: a correct stream fails one with
    # probability about 6e-7.
    normals = draw_block(AmplitudeErrorModel.gaussian_iid(1.0), 4, 12, range(16_000))[0]
    n = normals.size
    assert abs(normals.mean()) < 5 / math.sqrt(n)
    assert abs(normals.var() - 1.0) < 5 * math.sqrt(2 / n)
    # Neighbouring rows of a block, and a row's successive draws, are
    # uncorrelated.
    for a, b in ((normals[:-1, 0], normals[1:, 0]), (normals[:, 0], normals[:, 1])):
        assert abs(np.corrcoef(a, b)[0, 1]) < 5 / math.sqrt(a.size)


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
