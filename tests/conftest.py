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
