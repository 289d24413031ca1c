"""Type checks shared by the package's constructors: a size, count or seed
is an integer, and a level or SNR a real number, never a bool."""

from __future__ import annotations

import numpy as np


def integer(name: str, value) -> int:
    """``value`` as a plain int; a bool, float or anything else that is not a
    Python or numpy integer raises ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real(name: str, value) -> float:
    """``value`` as a plain float; a bool, string or anything else that is not
    a Python or numpy int or float raises ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of a float's range, got {value!r}") from None
