"""Small shared utilities used across fairexp subpackages."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .exceptions import ValidationError

__all__ = [
    "check_array",
    "check_binary_labels",
    "check_consistent_length",
    "check_random_state",
    "safe_divide",
    "sigmoid",
    "softmax",
    "one_hot",
]


def check_random_state(seed) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed, generator, or ``None``."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise ValidationError(f"cannot build a random generator from {seed!r}")


def check_array(x, *, ndim: int | None = None, name: str = "array") -> np.ndarray:
    """Convert ``x`` to a float ndarray and validate its dimensionality.

    Parameters
    ----------
    x:
        Array-like input.
    ndim:
        Required number of dimensions, or ``None`` for no check.
    name:
        Name used in error messages.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValidationError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


def check_binary_labels(y, *, name: str = "y") -> np.ndarray:
    """Validate that ``y`` contains only 0/1 labels and return it as an int array."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    values = np.unique(arr)
    if not np.all(np.isin(values, (0, 1))):
        raise ValidationError(f"{name} must contain only 0/1 labels, got values {values}")
    return arr.astype(int)


def check_consistent_length(*arrays: Sequence) -> None:
    """Raise :class:`ValidationError` unless all arrays share the same first dimension."""
    lengths = {len(a) for a in arrays if a is not None}
    if len(lengths) > 1:
        raise ValidationError(f"inconsistent numbers of samples: {sorted(lengths)}")


def safe_divide(numerator, denominator, *, default: float = 0.0):
    """Element-wise division returning ``default`` where the denominator is zero."""
    numerator = np.asarray(numerator, dtype=float)
    denominator = np.asarray(denominator, dtype=float)
    out = np.full(np.broadcast(numerator, denominator).shape, float(default))
    np.divide(numerator, denominator, out=out, where=denominator != 0)
    if out.shape == ():
        return float(out)
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid, as a float64 array of ``z``'s shape.

    ``1 / (1 + exp(-z))`` for ``z >= 0`` and ``exp(z) / (1 + exp(z))`` below
    zero, written without sign masks: ``exp(-|z|)`` is the exponential each
    branch takes, so every element goes through the same operations as a
    masked two-branch version, without its gathers and scatters.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.asarray(np.where(z >= 0, 1.0, e) / (1.0 + e))


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    z = np.asarray(z, dtype=float)
    shifted = z - np.max(z, axis=axis, keepdims=True)
    exp_z = np.exp(shifted)
    return exp_z / np.sum(exp_z, axis=axis, keepdims=True)


def one_hot(y: Iterable[int], n_classes: int | None = None) -> np.ndarray:
    """One-hot encode integer labels into an ``(n_samples, n_classes)`` matrix."""
    y = np.asarray(list(y), dtype=int)
    if n_classes is None:
        n_classes = int(y.max()) + 1
    out = np.zeros((y.shape[0], n_classes))
    out[np.arange(y.shape[0]), y] = 1.0
    return out
