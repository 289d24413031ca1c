"""Input checks shared by the package: a size, count or seed is an
integer, an SNR a real number and alpha one in (0, 1), never a bool;
labels are integers, in range where the label count is known."""

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


def alpha_level(alpha) -> float:
    """``alpha`` as a plain float in (0, 1), the open range of a miscoverage level."""
    alpha = real("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    return alpha


def class_labels(y, n_labels: int | None = None) -> np.ndarray:
    """``y`` as an int64 array of class labels.  A non-integer dtype raises
    ``ValueError`` (a float label would be truncated), and so, given
    ``n_labels``, does a label outside ``[0, n_labels)`` (-1 would index the
    last label)."""
    arr = np.asarray(y)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if n_labels is not None and arr.size and not (arr.min() >= 0 and arr.max() < n_labels):
        raise ValueError(f"labels must lie in [0, {n_labels}), got {arr.min()} to {arr.max()}")
    return arr
