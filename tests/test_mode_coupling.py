"""Branch and mc mode of one spec, coupled through the draws.

A row's stream gives its errors first and its clean-out uniforms after, so
both modes of one spec and seed draw the same errors for a row. Given those
errors, mc row i flags with the branch row's flag probability
p_i = 1 - no_flag_probability, independently of the other rows: the mc flag
count is Poisson-binomial in the p_i. Its exact law, by dynamic programming
over the rows (Hong, "On computing the distribution function for the
Poisson binomial distribution", CSDA 59, 2013), gives a test whose
false-failure rate is stated exactly rather than by a normal approximation.
"""

from dataclasses import replace

import numpy as np
import pytest

from heraldsim.experiments import ExperimentSpec, InputSpec, run_ensemble
from heraldsim.noise import AmplitudeErrorModel
from heraldsim.protocols import GateSpec
from heraldsim.statespace import BlochAxis

# A case fails when the two-sided tail of its flag count is at or below
# this; for a correct program that happens with probability at most 1e-6.
TAIL_FLOOR = 1e-6
GATE = GateSpec(BlochAxis(1.1, 0.4), 2.0)

CASES = {
    "single": dict(protocol="single", gate=GATE, input_state=InputSpec("plus_n"), trials=2000),
    "cz": dict(protocol="cz", input_state=InputSpec("bell"), trials=600),
    "chain4": dict(
        protocol="addressing",
        gate=GATE,
        input_state=InputSpec("plus_n"),
        crosstalk=(0.05, 1.0, 0.08, 0.03),
        target=1,
        trials=300,
    ),
}


def poisson_binomial_pmf(p: np.ndarray) -> np.ndarray:
    """P(X = k), k = 0..len(p), for X a sum of independent Bernoulli(p_i)."""
    pmf = np.zeros(len(p) + 1)
    pmf[0] = 1.0
    for k, pk in enumerate(p.tolist(), 1):
        pmf[1 : k + 1] = pmf[1 : k + 1] * (1.0 - pk) + pmf[:k] * pk
        pmf[0] *= 1.0 - pk
    return pmf


def two_sided_tail(pmf: np.ndarray, k: int) -> float:
    """Twice the smaller one-sided tail at k, at most 1: for any law, it
    is at or below a level a with probability at most a."""
    return min(1.0, 2.0 * min(pmf[: k + 1].sum(), pmf[k:].sum()))


def test_the_law_and_its_tail():
    # Identical p: the binomial law.
    pmf = poisson_binomial_pmf(np.full(4, 0.5))
    assert pmf.tolist() == pytest.approx([1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16], abs=1e-15)
    pmf = poisson_binomial_pmf(np.array([0.0, 1.0, 0.25]))
    assert pmf.tolist() == pytest.approx([0.0, 0.75, 0.25, 0.0], abs=1e-15)
    assert two_sided_tail(pmf, 1) == 1.0
    assert two_sided_tail(pmf, 2) == pytest.approx(0.5)


@pytest.mark.parametrize("case", sorted(CASES))
def test_mc_flags_follow_the_branch_probabilities_of_the_same_draws(case):
    spec = ExperimentSpec(
        error_model=AmplitudeErrorModel.gaussian_iid(0.3),
        master_seed=20211,
        selectivity=0.9,
        mode="branch",
        **CASES[case],
    )
    _, branch_rows = run_ensemble(spec, return_rows=True)
    _, mc_rows = run_ensemble(replace(spec, mode="mc"), return_rows=True)
    # The same errors, row by row.
    assert [r.error_sumsq for r in mc_rows] == [r.error_sumsq for r in branch_rows]
    assert [r.clamp_count for r in mc_rows] == [r.clamp_count for r in branch_rows]
    flag_probs = 1.0 - np.array([r.no_flag_probability for r in branch_rows])
    flags = sum(r.flagged for r in mc_rows)
    assert two_sided_tail(poisson_binomial_pmf(flag_probs), flags) > TAIL_FLOOR
