"""Basis masks for the tests' oracles, numpy only.

Built from the public basis order alone, never from the kernel's objects:
five levels per ion (Q0, Q1, AUX_PLUS, AUX_MINUS, BRIGHT), ion 0 most
significant, and the Fock index last when the space has a motional mode.
"""

import numpy as np

BRIGHT = 4


def basis_digits(space) -> np.ndarray:
    """Row k holds tensor factor k's index of every public basis state:
    each ion's level, ion 0 first, then the Fock index if there is motion."""
    dims = (5,) * space.n_ions + ((space.fock_cutoff + 1,) if space.fock_cutoff else ())
    return np.indices(dims).reshape(len(dims), -1)


def cleanout_mask(space, ion: int, levels, fock=None) -> np.ndarray:
    """The public basis states where ion ``ion``'s level is in ``levels``
    and, if ``fock`` is given, the Fock index is in ``fock``: a clean-out's
    target."""
    digits = basis_digits(space)
    mask = np.isin(digits[ion], [int(lv) for lv in levels])
    if fock is not None:
        mask &= np.isin(digits[space.n_ions], sorted(fock))
    return mask


def bright_mask(space) -> np.ndarray:
    """The public basis states where some ion is Bright."""
    return (basis_digits(space)[: space.n_ions] == BRIGHT).any(axis=0)
