"""Input validation helpers used across the library.

All public entry points validate their arguments eagerly so failures
surface with a clear message at the call site instead of deep inside a
numpy broadcast.
"""

from __future__ import annotations

import numbers

import numpy as np


def as_float_vector(x, name: str = "x") -> np.ndarray:
    """Coerce ``x`` into a 1-d float64 array.

    Accepts any sequence or array of numbers.  Raises ``ValueError`` for
    empty input, non-1-d input, or non-finite entries.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_float_matrix(x, dim: int, name: str = "X") -> np.ndarray:
    """Coerce ``x`` into a C-contiguous ``(n, dim)`` float64 matrix.

    :func:`coerce_float_matrix` followed by :func:`check_finite`: raises
    ``ValueError`` for non-2-d input, a row dimension other than
    ``dim``, or non-finite entries.
    """
    return check_finite(coerce_float_matrix(x, dim, name), name)


def coerce_float_matrix(x, dim: int, name: str = "X") -> np.ndarray:
    """Coerce ``x`` into a C-contiguous ``(n, dim)`` float64 matrix, unchecked.

    Accepts any 2-d sequence or array of numbers — any float dtype, any
    memory layout (Fortran-ordered and strided views are copied).  A
    zero-row matrix is legal (batch APIs treat it as "nothing to do").
    Raises ``ValueError`` for non-2-d input or a row dimension other
    than ``dim``; the entries are not looked at, so a caller can check
    finiteness later, or on a smaller array that carries it (see
    :meth:`repro.transforms.base.LinearTransform.apply_batch`).
    """
    arr = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if arr.ndim != 2:
        raise ValueError(
            f"{name} must be 2-dimensional (one row per vector), got shape {arr.shape}"
        )
    if arr.shape[1] != dim:
        raise ValueError(f"{name} has row dimension {arr.shape[1]}, expected {dim}")
    return arr


def check_finite(arr: np.ndarray, name: str = "X") -> np.ndarray:
    """Return ``arr`` unchanged; ``ValueError`` if any entry is NaN or infinite."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_batch(x, dim: int, name: str = "x") -> tuple[np.ndarray, bool]:
    """Coerce ``x`` into a 2-d batch of vectors of dimension ``dim``.

    Returns ``(batch, was_single)`` where ``was_single`` indicates the
    input was a single vector (so callers can squeeze the result back).
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a vector or a batch of vectors, got shape {arr.shape}")
    if arr.shape[1] != dim:
        raise ValueError(f"{name} has dimension {arr.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr, single


def check_positive(value, name: str) -> float:
    """Validate that ``value`` is a finite, strictly positive real number."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_probability(value, name: str, allow_zero: bool = False) -> float:
    """Validate a probability in ``(0, 1)`` (or ``[0, 1)`` when ``allow_zero``)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    lower_ok = value >= 0 if allow_zero else value > 0
    if not (lower_ok and value < 1):
        bracket = "[0, 1)" if allow_zero else "(0, 1)"
        raise ValueError(f"{name} must lie in {bracket}, got {value}")
    return value


def check_unit_range(value, name: str) -> float:
    """Validate a parameter in the open interval ``(0, 1/2)`` (JL alpha/beta)."""
    value = check_probability(value, name)
    if value >= 0.5:
        raise ValueError(f"{name} must be < 1/2 (Johnson-Lindenstrauss regime), got {value}")
    return value


def check_index(index, dim: int, name: str = "index") -> int:
    """Validate an integer coordinate index into ``[0, dim)``."""
    if not isinstance(index, numbers.Integral) or isinstance(index, bool):
        raise TypeError(f"{name} must be an integer, got {type(index).__name__}")
    index = int(index)
    if not 0 <= index < dim:
        raise ValueError(f"{name} must lie in [0, {dim}), got {index}")
    return index
