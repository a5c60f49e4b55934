"""Dense numerical kernels: Jacobi eigendecomposition, spectral norm, soft threshold.

Everything here is deterministic: pure numpy, plus the LAPACK SVD behind
the spectral norm.
"""

import numpy as np

__all__ = ["symmetrize", "jacobi_eigh", "spectral_norm", "soft_threshold_offdiag"]


def symmetrize(M):
    """Return (M + M.T) / 2."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def _round_robin_rounds(n):
    """Disjoint pair rounds covering all index pairs once (circle method)."""
    m = n if n % 2 == 0 else n + 1
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a < n and b < n:
                pairs.append((min(a, b), max(a, b)))
        rounds.append(pairs)
        players = [players[0]] + [players[-1]] + players[1:-1]
    return rounds


def jacobi_eigh(M, tol=1e-12, max_sweeps=60, basis=None):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Uses a round-robin ordering so every sweep applies n-1 batches of
    mutually disjoint plane rotations; rotations on disjoint pairs commute,
    so each batch is applied with vectorized column/row updates.

    Parameters
    ----------
    M : (n, n) array
        Symmetric matrix (symmetrized defensively before factoring).
    tol : float
        Stop once the off-diagonal Frobenius norm drops below
        ``tol * ||M||_F``.
    max_sweeps : int
        Hard cap on sweeps.
    basis : (n, n) array, optional
        Orthonormal warm-start basis. When M is close to a previously
        factored matrix, passing its eigenvectors makes the rotated matrix
        nearly diagonal and cuts the sweep count.

    Returns
    -------
    w : (n,) array of eigenvalues in ascending order.
    V : (n, n) array of corresponding orthonormal eigenvectors (columns).
    """
    A = symmetrize(M).copy()
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 1:
        return A[0].copy(), np.eye(1)
    if basis is not None:
        V = np.array(basis, dtype=float, copy=True)
        A = symmetrize(V.T @ A @ V)
    else:
        V = np.eye(n)
    scale = max(np.linalg.norm(A, "fro"), np.finfo(float).tiny)
    rounds = _round_robin_rounds(n)
    skip = tol * scale / (16.0 * n)
    diag_mask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        off = np.linalg.norm(A[diag_mask])
        if off <= tol * scale:
            break
        for pairs in rounds:
            p = np.array([ij[0] for ij in pairs])
            q = np.array([ij[1] for ij in pairs])
            apq = A[p, q]
            live = np.abs(apq) > skip
            if not np.any(live):
                continue
            p, q, apq = p[live], q[live], apq[live]
            # 2x2 symmetric Schur rotation per pair
            theta = (A[q, q] - A[p, p]) / (2.0 * apq)
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t = np.where(theta == 0.0, 1.0, t)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            Ap, Aq = A[:, p].copy(), A[:, q].copy()
            A[:, p] = c * Ap - s * Aq
            A[:, q] = s * Ap + c * Aq
            Rp, Rq = A[p, :].copy(), A[q, :].copy()
            A[p, :] = c[:, None] * Rp - s[:, None] * Rq
            A[q, :] = s[:, None] * Rp + c[:, None] * Rq
            A[p, q] = 0.0
            A[q, p] = 0.0
            Vp, Vq = V[:, p].copy(), V[:, q].copy()
            V[:, p] = c * Vp - s * Vq
            V[:, q] = s * Vp + c * Vq
    else:
        raise RuntimeError("Jacobi eigendecomposition did not converge "
                           f"within {max_sweeps} sweeps")
    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


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
    shrunk = np.sign(M) * np.maximum(np.abs(M) - t, 0.0)
    out = shrunk.copy()
    np.fill_diagonal(out, np.diag(M))
    return out
