"""Dense numerical kernels: symmetrization, spectral norm, Frobenius
distance, soft threshold.

Everything here is deterministic: pure numpy, plus the LAPACK SVD behind
the spectral norm.
"""

import math
import weakref

import numpy as np

__all__ = ["symmetrize", "spectral_norm", "frobenius_distance",
           "soft_threshold_offdiag"]

# (matrix, norm) of the last read-only matrix spectral_norm normed
_last_norm = None
# frobenius_distance's memo: (id(a), id(b)) -> (weak reference to a, weak
# reference to b, ||a - b||_F) for read-only arrays a and b
_distances = {}


def symmetrize(M):
    """Return (M + M.T) / 2."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def spectral_norm(M):
    """Largest singular value of M from the LAPACK SVD; 0.0 when M is empty.

    Unlike an iterative estimate it does not stop short of the top singular
    value, so the Lipschitz constants built from it are upper bounds. It
    keeps the last read-only matrix it normed and answers that very array
    without an SVD, and a writable one takes an SVD at every call: the
    caching rule of model.ParametricProblem. An inner solve asks for ||A||
    of the same A every time.
    """
    global _last_norm
    last = _last_norm
    if last is not None and M is last[0]:
        return last[1]
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a 2-d array")
    if M.size == 0:
        return 0.0
    norm = float(np.linalg.norm(M, 2))
    if not M.flags.writeable:
        _last_norm = (M, norm)
    return norm


def frobenius_distance(a, b):
    """||a - b||_F as a float, with np.linalg.norm's arithmetic, bit for bit.

    Memoized under model.ParametricProblem's caching rule: the distance of
    two read-only arrays is kept under (id(a), id(b)) with a weak reference
    to each, which drops the entry when either array is collected, and a
    lookup answers only when both references are those very arrays; a pair
    with a writable array, or one that is not an ndarray, is recomputed at
    every call. A NaN or an infinity gives a NaN or inf distance without a
    RuntimeWarning.
    """
    if (not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray)
            or a.flags.writeable or b.flags.writeable):
        return _distance(a, b)
    key = (id(a), id(b))
    entry = _distances.get(key)
    if entry is not None and entry[0]() is a and entry[1]() is b:
        return entry[2]
    distance = _distance(a, b)

    def drop(_ref):
        _distances.pop(key, None)

    _distances[key] = (weakref.ref(a, drop), weakref.ref(b, drop), distance)
    return distance


def _distance(a, b):
    """||a - b||_F: the square root of the dot product of a - b, raveled in
    memory order, with itself, as np.linalg.norm computes it."""
    with np.errstate(invalid="ignore", over="ignore"):
        diff = (np.asarray(a, dtype=float) - np.asarray(b, dtype=float)).ravel(order="K")
        return math.sqrt(diff.dot(diff))


def soft_threshold_offdiag(M, t):
    """Soft-threshold the off-diagonal entries of M at level t; keep the diagonal.

    sign(M) * max(|M| - t, 0), computed in the result's buffer with the
    operations and operand order of that expression, so every entry is
    the expression's, signed zeros included.
    """
    M = np.asarray(M, dtype=float)
    out = np.abs(M)
    np.subtract(out, t, out=out)
    np.maximum(out, 0.0, out=out)
    np.multiply(np.sign(M), out, out=out)
    np.fill_diagonal(out, np.diag(M))
    return out
