"""Ensemble statistics against a row-by-row oracle.

The runner reduces one array per per-trajectory field. The oracle below
reduces the way the runner once did: it sorts the
:class:`TrajectoryRow` records that ``run_ensemble(return_rows=True)``
returns and folds them one attribute at a time, with numpy and the standard
library only. Both must agree by ``repr`` on every statistic, so every sum
must run in the same order.
"""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heraldsim.experiments import ExperimentSpec, InputSpec, run_ensemble
from heraldsim.noise import AmplitudeErrorModel
from heraldsim.protocols import GateSpec
from heraldsim.pulses import BlochAxis

WILSON_Z = 1.96


def oracle_wilson(rate, n):
    z2 = WILSON_Z**2
    denom = 1.0 + z2 / n
    center = (rate + z2 / (2 * n)) / denom
    half = WILSON_Z * math.sqrt(rate * (1.0 - rate) / n + z2 / (4 * n * n)) / denom
    return [center - half, center + half]


def oracle_statistics(mode, rows):
    """``EnsembleStatistics.to_dict()`` of an ensemble, from its rows."""
    rows = sorted(rows, key=lambda r: r.index)
    n = len(rows)
    noflag = np.array([r.no_flag_probability for r in rows])
    fid = np.array([r.fidelity for r in rows])
    flag_prob = 1.0 - noflag
    herald_rate = float(np.mean(flag_prob))
    weight_sum = float(np.sum(noflag))
    sumsq = float(np.sum(np.array([r.error_sumsq for r in rows])))
    n_err = sum(r.n_errors for r in rows)
    rms_error = math.sqrt(sumsq / n_err)
    quad = 1.0 - rows[0].n_errors * (rms_error / 2.0) ** 2
    n_unflagged = int(np.sum(noflag > 0.0))
    if mode == "mc":
        se = math.sqrt(herald_rate * (1.0 - herald_rate) / n)
        wilson = oracle_wilson(herald_rate, n)
        cond = cond_se = None
        if n_unflagged > 0:
            kept = fid[noflag > 0.0]
            cond = float(np.mean(kept))
            cond_se = 0.0
            if n_unflagged > 1:
                cond_se = float(np.std(kept, ddof=1) / math.sqrt(n_unflagged))
        uncond = float(np.sum(fid[noflag > 0.0]) / n) if n_unflagged else 0.0
    else:
        se = float(np.std(flag_prob, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        wilson = None
        cond = cond_se = None
        if weight_sum > 0.0:
            cond = float(np.sum(noflag * fid) / weight_sum)
            var = float(np.sum(noflag * (fid - cond) ** 2) / weight_sum)
            cond_se = math.sqrt(max(var, 0.0) / n)
        uncond = float(np.sum(noflag * fid) / n)
    totals, counts = {}, {}
    for r in rows:
        for step, ion, value in r.step_flags:
            totals[step, ion] = totals.get((step, ion), 0.0) + value
            counts[step, ion] = counts.get((step, ion), 0) + 1
    return {
        "trials": n,
        "mode": mode,
        "herald_rate": herald_rate,
        "herald_rate_se": se,
        "wilson_interval": wilson,
        "conditional_fidelity": cond,
        "conditional_fidelity_se": cond_se,
        "unconditional_fidelity": uncond,
        "n_unflagged": n_unflagged,
        "step_flag_rates": [
            [step, ion, totals[step, ion] / counts[step, ion]]
            for step, ion in sorted(totals)
        ],
        "clamp_count": sum(r.clamp_count for r in rows),
        "rms_error": rms_error,
        "quadratic_no_flag_approx": quad,
    }


def make_spec(protocol, mode, sigma, selectivity, seed, trials):
    common = dict(
        error_model=AmplitudeErrorModel.gaussian_iid(sigma),
        trials=trials,
        master_seed=seed,
        selectivity=selectivity,
        mode=mode,
    )
    if protocol == "cz":
        return ExperimentSpec(protocol="cz", input_state=InputSpec("bell"), **common)
    gate = GateSpec(BlochAxis(math.pi / 3, 0.5), math.pi / 2)
    if protocol == "single":
        return ExperimentSpec(
            protocol="single", input_state=InputSpec("plus_n"), gate=gate, **common
        )
    return ExperimentSpec(
        protocol="addressing",
        input_state=InputSpec("plus_n"),
        gate=gate,
        crosstalk=(0.05, 1.0, 0.05, 0.02),
        target=1,
        **common,
    )


def assert_matches_oracle(spec, workers):
    stats = run_ensemble(spec, workers)
    _, rows = run_ensemble(spec, workers, return_rows=True)
    assert [r.index for r in rows] == list(range(spec.trials))
    assert repr(stats.to_dict()) == repr(oracle_statistics(spec.mode, rows))
    return stats, rows


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", ["branch", "mc"])
@pytest.mark.parametrize("protocol", ["single", "cz", "addressing"])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    sigma=st.sampled_from([0.0, 0.05, 0.5, 4.0]),
    selectivity=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**40),
    trials=st.integers(4, 40),
)
@example(sigma=4.0, selectivity=1.0, seed=3, trials=40)
@example(sigma=0.05, selectivity=0.0, seed=5, trials=7)
def test_statistics_match_the_row_oracle(
    protocol, mode, workers, sigma, selectivity, seed, trials
):
    spec = make_spec(protocol, mode, sigma, selectivity, seed, trials)
    assert_matches_oracle(spec, workers)


def test_clamped_draws_match_the_oracle():
    spec = make_spec("single", "mc", 4.0, 0.95, 8, 60)
    stats, _ = assert_matches_oracle(spec, 2)
    assert stats.clamp_count > 0


def test_chain_rows_dropped_below_the_floor_match_the_oracle():
    # At sigma = 4 some target areas clamp next to zero, where the no-flag
    # factor falls below PROB_FLOOR and branch mode drops the row.
    spec = make_spec("addressing", "branch", 4.0, 0.95, 21, 60)
    _, rows = assert_matches_oracle(spec, 1)
    dropped = [r for r in rows if r.no_flag_probability == 0.0]
    assert dropped and all(r.step_flags == () for r in dropped)
    assert len(dropped) < len(rows)


@pytest.mark.parametrize("mode", ["branch", "mc"])
def test_ensemble_where_every_row_flags_matches_the_oracle(mode):
    stats, rows = assert_matches_oracle(make_spec("cz", mode, 0.05, 0.0, 2, 30), 1)
    assert stats.n_unflagged == 0 and stats.conditional_fidelity is None
    assert all(r.no_flag_probability == 0.0 for r in rows)


def test_step_flag_rates_sum_left_to_right():
    # Here a pairwise sum (np.sum) and a left-to-right sum of the flag rates
    # at the first clean-out differ in the last bit; the reported rate is the
    # left-to-right one. functools.reduce, not the builtin sum, which
    # compensates from Python 3.12 on.
    spec = make_spec("single", "branch", 0.05, 0.95, 1, 40)
    stats, rows = run_ensemble(spec, return_rows=True)
    site = (0, 0)
    values = [v for r in rows for step, ion, v in r.step_flags if (step, ion) == site]
    left_to_right = functools.reduce(operator.add, values, 0.0)
    assert left_to_right != float(np.sum(np.array(values)))
    assert stats.step_flag_rates[site] == left_to_right / len(values)
