"""Dense numerical kernels: symmetrization, spectral norm, soft threshold.

Everything here is deterministic: pure numpy, plus the LAPACK SVD behind
the spectral norm.
"""

import numpy as np

__all__ = ["symmetrize", "spectral_norm", "soft_threshold_offdiag"]


def symmetrize(M):
    """Return (M + M.T) / 2."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def spectral_norm(M):
    """Largest singular value of M from the LAPACK SVD; 0.0 when M is empty.

    Unlike an iterative estimate it does not stop short of the top singular
    value, so the Lipschitz constants built from it are upper bounds.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a 2-d array")
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def soft_threshold_offdiag(M, t):
    """Soft-threshold the off-diagonal entries of M at level t; keep the diagonal."""
    M = np.asarray(M, dtype=float)
    out = np.sign(M) * np.maximum(np.abs(M) - t, 0.0)
    np.fill_diagonal(out, np.diag(M))
    return out
