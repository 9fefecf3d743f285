"""One rule per reduction: the one-state API is the row function at one row.

Norms, populations, normalization, overlaps and fidelities each have one
row-wise rule in ``heraldsim.statespace``, written in split real
arithmetic: ``_row_norm2`` (and ``_subset_norm2`` on a register subset),
``_normalized``, ``_row_overlaps`` and ``_row_fidelities``. The checks
below hold every one-state function to its row function bit for bit, hold
each row's result to be the same at block 1 and block 64, compare the
overlap with an independent ``np.vdot`` within a stated bound, and check
that none of these bits depend on the OpenBLAS kernel. numpy only.
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heraldsim
from heraldsim.statespace import (
    IonLevel,
    PureState,
    StateSpace,
    _normalized,
    _row_fidelities,
    _row_norm2,
    _row_overlaps,
    _subset_norm2,
    fidelity_up_to_global_phase,
    fock_population,
    make_state,
    manifold_population,
    overlap,
)

SPACES = [StateSpace(1), StateSpace(2), StateSpace(3), StateSpace(4), StateSpace(2, 3)]
LEVEL_SETS = [
    frozenset(c) for r in (1, 2, 3) for c in itertools.combinations(IonLevel, r)
]
BLOCK = 64
# Unit round-off of float64.
EPS = 2.0**-53


def space_id(space):
    return f"{space.n_ions}ions-cutoff{space.fock_cutoff}"


def raw_rows(space, seed, block=BLOCK):
    """Unnormalized complex Gaussian rows."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(block, space.dim)) + 1j * rng.normal(size=(block, space.dim))


def unit_rows(space, seed, block=BLOCK):
    v = raw_rows(space, seed, block)
    return v / np.sqrt((v.real**2 + v.imag**2).sum(axis=1))[:, None]


def subsets(space):
    """(ion, levels, fock) of a spread of register subsets."""
    for ion in range(space.n_ions):
        for levels in LEVEL_SETS[:: 1 + ion]:
            yield ion, levels, None
    for n in range(space.fock_dim) if space.has_motion else ():
        yield 0, None, frozenset({n})


@pytest.mark.parametrize("space", SPACES, ids=space_id)
def test_one_state_functions_are_their_row_function(space):
    rows = unit_rows(space, 11)
    ideal = PureState(space, unit_rows(space, 12, 1)[0])
    norm2 = _row_norm2(rows)
    overlaps = _row_overlaps(rows, ideal.amplitudes)
    fids = _row_fidelities(rows, ideal.amplitudes)
    pops = {key: _subset_norm2(rows, space, *key) for key in subsets(space)}
    for i in (0, 17, BLOCK - 1):
        state = PureState(space, rows[i])
        assert state.norm == math.sqrt(norm2[i])
        assert overlap(state, ideal) == complex(overlaps[0][i], overlaps[1][i])
        assert fidelity_up_to_global_phase(state, ideal) == fids[i]
        for (ion, levels, fock), pop in pops.items():
            if fock is None:
                assert manifold_population(state, ion, levels) == pop[i]
            else:
                assert fock_population(state, min(fock)) == pop[i]


@pytest.mark.parametrize("space", SPACES, ids=space_id)
def test_make_state_is_the_row_normalization(space):
    rows = raw_rows(space, 21)
    unit = _normalized(rows)
    for i in (0, 40):
        state = make_state(space, enumerate(rows[i]))
        assert state.amplitudes.tobytes() == unit[i].tobytes()


@pytest.mark.parametrize("space", SPACES, ids=space_id)
def test_rows_are_the_same_at_block_one_and_block_64(space):
    rows = raw_rows(space, 31)
    ideal = unit_rows(space, 32, 1)[0]

    def each_row(f):
        """f of the whole block, and f of each row as a block of one."""
        whole = f(rows)
        alone = [f(rows[i : i + 1]) for i in range(BLOCK)]
        return whole, alone

    functions = [_row_norm2, _normalized, lambda a: _row_fidelities(a, ideal)]
    functions += [lambda a, k=k: _row_overlaps(a, ideal)[k] for k in (0, 1)]
    functions += [lambda a, s=s: _subset_norm2(a, space, *s) for s in subsets(space)]
    for f in functions:
        whole, alone = each_row(f)
        assert whole.tobytes() == np.concatenate(alone).tobytes()


@pytest.mark.parametrize("space", SPACES, ids=space_id)
def test_overlap_agrees_with_vdot(space):
    # For unit vectors every term of <a|b> is at most 1 in modulus, so a
    # dim-term sum in either order is within dim * EPS of the exact value in
    # each part (pairwise summation is far inside that). Two such sums, two
    # parts: 4 * dim * EPS bounds the difference.
    bound = 4 * space.dim * EPS
    a, b = unit_rows(space, 41, 16), unit_rows(space, 42, 16)
    worst = 0.0
    for x, y in zip(a, b):
        got = overlap(PureState(space, x), PureState(space, y))
        want = complex(np.vdot(x, y))
        worst = max(worst, abs(got.real - want.real), abs(got.imag - want.imag))
        fid = fidelity_up_to_global_phase(PureState(space, x), PureState(space, y))
        assert abs(fid - abs(want) ** 2) <= 3 * bound
    assert worst <= bound


def reduction_hashes() -> dict[str, str]:
    """sha256 of fixed norms, populations, normalizations, overlaps and
    fidelities, one per kind and space."""
    out = {}
    for space in SPACES:
        rows = raw_rows(space, 51, 8)
        unit = _normalized(rows)
        ideal = unit_rows(space, 52, 1)[0]
        values = {
            "norm2": _row_norm2(rows),
            "normalized": unit,
            "make_state": make_state(space, enumerate(rows[0])).amplitudes,
            "populations": np.concatenate(
                [_subset_norm2(unit, space, *s) for s in subsets(space)]
            ),
            "overlaps": np.concatenate(_row_overlaps(unit, ideal)),
            "fidelities": _row_fidelities(unit, ideal),
        }
        for kind, value in values.items():
            out[f"{space_id(space)}/{kind}"] = hashlib.sha256(value.tobytes()).hexdigest()
    return out


# OpenBLAS kernel: the CPU feature it needs to run at all.
CORES = {"Haswell": "AVX2", "Sandybridge": "AVX"}


@pytest.mark.parametrize("core", sorted(CORES))
def test_reductions_do_not_depend_on_the_blas_kernel(core):
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    if not __cpu_features__.get(CORES[core]):
        pytest.skip(f"this CPU cannot run the {core} kernel")
    here = Path(__file__).parent
    src = Path(heraldsim.__file__).parents[1]
    code = "import json, test_row_rules; print(json.dumps(test_row_rules.reduction_hashes()))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=here,
        env=dict(
            os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join([str(src), str(here)])
        ),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout) == reduction_hashes()
