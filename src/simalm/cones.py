"""Projection and distance calculus for proper cones.

Four cone variants are supported: the zero cone, the nonnegative orthant,
the second-order cone, and finite products of those. Each cone K exposes
projections onto K, onto its dual cone, and onto -K, together with the
distance to -K and the gradient of the squared distance. All operations
accept arrays of shape (..., dim) and broadcast over leading axes, are
stateless, and are safe to call concurrently.
"""

import numpy as np

__all__ = [
    "Cone", "ZeroCone", "NonnegativeOrthant", "SecondOrderCone", "ProductCone",
]


class Cone:
    """Base class; concrete cones implement `project` and `project_dual`."""

    def __init__(self, dim):
        if not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError("cone dimension must be a positive integer")
        self.dim = int(dim)

    def _check(self, y):
        y = np.asarray(y, dtype=float)
        if y.shape[-1:] != (self.dim,):
            raise ValueError(f"expected last axis of length {self.dim}, "
                             f"got shape {y.shape}")
        return y

    def project(self, y):
        """Euclidean projection onto the cone (nearest point)."""
        raise NotImplementedError

    def project_dual(self, y):
        """Euclidean projection onto the dual cone."""
        raise NotImplementedError

    def project_neg(self, y):
        """Euclidean projection onto the polar reflection -K.

        Computed through the reflection identity -proj_K(-y), which holds
        for every closed convex cone.
        """
        return -self.project(-self._check(y))

    def dist(self, y):
        """Distance from y to the cone."""
        y = self._check(y)
        return np.linalg.norm(y - self.project(y), axis=-1)

    def dist_neg(self, y):
        """Distance from y to -K."""
        y = self._check(y)
        return np.linalg.norm(y - self.project_neg(y), axis=-1)

    def dist_neg_sq_grad(self, y):
        """Gradient of the squared distance to -K: 2 (y - proj_{-K}(y))."""
        y = self._check(y)
        return 2.0 * (y - self.project_neg(y))

    def __repr__(self):
        return f"{type(self).__name__}({self.dim})"


class ZeroCone(Cone):
    """K = {0}. Its dual cone is the whole space."""

    def project(self, y):
        return np.zeros_like(self._check(y))

    def project_dual(self, y):
        return self._check(y).copy()


class NonnegativeOrthant(Cone):
    """K = {y : y >= 0}, self-dual."""

    def project(self, y):
        return np.maximum(self._check(y), 0.0)

    project_dual = project

    def dist_neg(self, y):
        """Distance from y to -K: the norm of max(y, 0), which is Cone's
        y - proj_{-K}(y) up to the sign of zeros, except at y = -inf, where
        that difference reads -inf - (-inf) = NaN and max(y, 0) reads 0."""
        d = np.maximum(self._check(y), 0.0)
        return np.sqrt(np.add.reduce(d * d, axis=-1))


class SecondOrderCone(Cone):
    """K = {(t, u) : ||u|| <= t}, self-dual. The first coordinate is t.

    Projection uses the three-case closed form: points inside the cone are
    fixed, points inside the polar map to the origin, and the remaining
    points are scaled onto the boundary by (t + ||u||) / 2. The scaling
    formula is continuous at the tie ||u|| == |t|, which resolves boundary
    cases without branching ambiguity.
    """

    def project(self, y):
        y = self._check(y)
        t = y[..., 0]
        u = y[..., 1:]
        nu = np.linalg.norm(u, axis=-1)
        out = np.where((t >= nu)[..., None], y, 0.0)
        boundary = (nu > t) & (nu > -t)
        if np.any(boundary):
            coef = 0.5 * (t + nu)
            safe_nu = np.where(nu > 0.0, nu, 1.0)
            scaled = np.concatenate(
                [coef[..., None], (coef / safe_nu)[..., None] * u], axis=-1)
            out = np.where(boundary[..., None], scaled, out)
        return out

    def project_dual(self, y):
        return self.project(y)


class ProductCone(Cone):
    """Cartesian product of cones; operations apply blockwise."""

    def __init__(self, components):
        components = list(components)
        if not components:
            raise ValueError("product cone needs at least one component")
        for comp in components:
            if not isinstance(comp, Cone):
                raise ValueError("product components must be cones")
        self.components = components
        super().__init__(sum(c.dim for c in components))

    def _blocks(self, y):
        offsets = np.cumsum([c.dim for c in self.components])[:-1]
        return np.split(y, offsets, axis=-1)

    def project(self, y):
        y = self._check(y)
        return np.concatenate(
            [c.project(b) for c, b in zip(self.components, self._blocks(y))],
            axis=-1)

    def project_dual(self, y):
        y = self._check(y)
        return np.concatenate(
            [c.project_dual(b) for c, b in zip(self.components, self._blocks(y))],
            axis=-1)

    def __repr__(self):
        inner = ", ".join(repr(c) for c in self.components)
        return f"ProductCone([{inner}])"

