"""Dense numerical kernels: symmetrization, spectral norm, soft threshold.

Everything here is deterministic: pure numpy, plus the LAPACK SVD behind
the spectral norm.
"""

import numpy as np

__all__ = ["symmetrize", "spectral_norm", "soft_threshold_offdiag"]

# (shape, bytes, norm) of the last matrix spectral_norm took an SVD of
_last_norm = None


def symmetrize(M):
    """Return (M + M.T) / 2."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def spectral_norm(M):
    """Largest singular value of M from the LAPACK SVD; 0.0 when M is empty.

    Unlike an iterative estimate it does not stop short of the top singular
    value, so the Lipschitz constants built from it are upper bounds. The
    last matrix's shape, bytes and norm are kept, and a matrix equal to it
    bit for bit gets that norm back without an SVD: an inner solve asks for
    ||A|| of the same A every time. The entry is one tuple, replaced whole,
    so threads sharing it at worst take an SVD twice.
    """
    global _last_norm
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a 2-d array")
    if M.size == 0:
        return 0.0
    data = M.tobytes()
    last = _last_norm
    if last is not None and last[0] == M.shape and last[1] == data:
        return last[2]
    norm = float(np.linalg.norm(M, 2))
    _last_norm = (M.shape, data, norm)
    return norm


def soft_threshold_offdiag(M, t):
    """Soft-threshold the off-diagonal entries of M at level t; keep the diagonal."""
    M = np.asarray(M, dtype=float)
    out = np.sign(M) * np.maximum(np.abs(M) - t, 0.0)
    np.fill_diagonal(out, np.diag(M))
    return out
