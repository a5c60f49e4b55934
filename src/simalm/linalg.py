"""Dense numerical kernels: symmetrization, spectral norm, soft threshold.

Everything here is deterministic: pure numpy, plus the LAPACK SVD behind
the spectral norm.
"""

import numpy as np

__all__ = ["symmetrize", "spectral_norm", "soft_threshold_offdiag"]

# (matrix, norm) of the last read-only matrix spectral_norm normed
_last_norm = None


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


def soft_threshold_offdiag(M, t):
    """Soft-threshold the off-diagonal entries of M at level t; keep the diagonal."""
    M = np.asarray(M, dtype=float)
    out = np.sign(M) * np.maximum(np.abs(M) - t, 0.0)
    np.fill_diagonal(out, np.diag(M))
    return out
