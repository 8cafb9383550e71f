import dataclasses
import numbers

import numpy as np
import pytest

from qwork import qop_core as qc


def _all_finite(x):
    # every number a result holds, through channels, reports, branches and
    # lists
    if isinstance(x, qc.QuantumChannel):
        return _all_finite(x.kraus)
    if dataclasses.is_dataclass(x):
        return _all_finite(list(vars(x).values()))
    if isinstance(x, dict):
        return _all_finite(list(x.values()))
    if isinstance(x, (list, tuple)):
        return all(map(_all_finite, x))
    if x is None or isinstance(x, (str, numbers.Rational)):
        return True   # an int or Fraction of any size is exact and finite
    return bool(np.isfinite(x).all())


@pytest.fixture(scope="session")
def all_finite():
    """The check that an entry point's output holds only finite numbers."""
    return _all_finite


def _conjugate_local(op, rho, axes):
    half = qc.apply_local(op, rho, axes).swapaxes(-1, -2)
    return qc.apply_local(np.conj(op), half, axes).swapaxes(-1, -2)


@pytest.fixture(scope="session")
def conjugate_local():
    """op rho op† for a local op on qubits axes of a 2^n x 2^n rho (or of an
    (S, 2^n, 2^n) stack, under an (S, 2^k, 2^k) stack of ops), by two passes
    of qop_core.apply_local."""
    return _conjugate_local
