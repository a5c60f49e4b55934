"""Dense numerical kernels: symmetrization, spectral norm, Frobenius
distance, soft threshold, and the library's one caching rule.

Everything here is deterministic: pure numpy, plus the LAPACK SVD behind
the spectral norm.
"""

import functools
import math
import weakref

import numpy as np

__all__ = ["symmetrize", "spectral_norm", "frobenius_distance",
           "soft_threshold_offdiag", "frozen", "frozen_memo"]


def frozen(a):
    """Whether a is a frozen array: a read-only ndarray whose memory is
    owned by a read-only ndarray, a itself or a's base.

    A read-only view of a writable array is not frozen, since a write
    through its base changes it, and neither is a read-only array over
    memory that no ndarray owns. numpy sets a view's base to the array
    that owns its memory, or else to the first object that is not an
    ndarray of the view's own type; a base that does not own the memory
    leaves the view unfrozen. The caching rule (frozen_memo) trusts only
    frozen arrays.
    """
    if not isinstance(a, np.ndarray) or a.flags.writeable:
        return False
    owner = a if a.base is None else a.base
    return isinstance(owner, np.ndarray) and owner.flags.owndata and not owner.flags.writeable


def frozen_memo(function):
    """function memoized under the library's caching rule.

    The caching rule. The library assumes that a frozen array stays
    unchanged, and every array it hands out is frozen: each theta a
    learner reveals, the admm_solve Sigma*, and a PortfolioInstance's data
    with the constraint matrix and offset its problem returns. So every
    cache of what an array determines meets a frozen array by identity and
    recomputes from any other at every call. The rule holds only for
    arrays the library froze as it made them: an array's owner can switch
    its flag back, and a writable view taken before the freeze still
    writes.

    The memo keeps function(*args) in its dict `entries` when every
    argument is frozen: under the tuple of the arguments' ids, the value
    and a weak reference to each argument. An entry drops when any of its
    arguments is collected, and a lookup answers only when every reference
    is that very argument, so an entry left at a reused address is never
    read, also when threads share the memo. Any other call, one with a
    writable array, a read-only view of a writable array or an argument
    that is not an ndarray, runs function.
    """
    entries = {}

    @functools.wraps(function)
    def memo(*args):
        key = tuple(map(id, args))
        entry = entries.get(key)
        if entry is not None:
            i = 0
            for arg in args:
                i += 1
                if entry[i]() is not arg:
                    break
            else:
                return entry[0]
        value = function(*args)
        if all(map(frozen, args)):
            entries[key] = (value, *(weakref.ref(arg, lambda _: entries.pop(key, None))
                                     for arg in args))
        return value

    memo.entries = entries
    return memo


def symmetrize(M):
    """Return (M + M.T) / 2."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


@frozen_memo
def spectral_norm(M):
    """Largest singular value of M from the LAPACK SVD; 0.0 when M is empty.

    Unlike an iterative estimate it does not stop short of the top singular
    value, so the Lipschitz constants built from it are upper bounds. A
    frozen_memo: an inner solve asks for ||A|| of the same frozen A every
    time and takes one SVD.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a 2-d array")
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


@frozen_memo
def frobenius_distance(a, b):
    """||a - b||_F as a float, with np.linalg.norm's arithmetic, bit for bit:
    the square root of the dot product of a - b, raveled in memory order,
    with itself.

    A frozen_memo, behind every theta error and the Weyl shift of a run's
    CurvatureAnchor. A NaN or an infinity gives a NaN or inf distance
    without a RuntimeWarning.
    """
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
