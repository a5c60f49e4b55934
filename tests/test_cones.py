import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simalm.cones import (Cone, NonnegativeOrthant, ProductCone,
                          SecondOrderCone, ZeroCone)
from conftest import ALL_CONES, cone_member


def sample(gen, cone, size=None):
    shape = (cone.dim,) if size is None else (size, cone.dim)
    return gen.standard_normal(shape) * 3.0


def test_construction_validation():
    with pytest.raises(ValueError):
        NonnegativeOrthant(0)
    with pytest.raises(ValueError):
        SecondOrderCone(-1)
    with pytest.raises(ValueError):
        ProductCone([])
    with pytest.raises(ValueError):
        ProductCone([NonnegativeOrthant(2), "not a cone"])
    with pytest.raises(ValueError):
        ZeroCone(2).project([1.0, 2.0, 3.0])


def test_orthant_projection_clamps():
    cone = NonnegativeOrthant(2)
    np.testing.assert_allclose(cone.project([-1.0, 2.0]), [0.0, 2.0])
    np.testing.assert_allclose(cone.project_neg([-1.0, 2.0]), [-1.0, 0.0])


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
                  elements=st.floats(allow_nan=False) | st.sampled_from(
                      [0.0, -0.0, np.inf, -np.inf, 5e-324, -1.7976931348623157e308])))
def test_orthant_distance_is_the_generic_one_bit_for_bit(y):
    # the orthant's closed form max(y, 0) against Cone's y - proj_{-K}(y)
    # over leading axes, signed zeros and infinities (entries that overflow
    # when squared warn on both). At y = -inf the generic difference reads
    # -inf - (-inf) = NaN; the closed form reads 0 there, as the generic
    # does at any finite negative entry
    cone = NonnegativeOrthant(y.shape[-1])
    with np.errstate(over="ignore"):
        got = cone.dist_neg(y)
        want = Cone.dist_neg(cone, np.where(y == -np.inf, -1.0, y))
    assert np.shape(got) == np.shape(want) == y.shape[:-1]
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert NonnegativeOrthant(4).dist_neg([-np.inf, 1.0, 2.0, 0.0]) == np.sqrt(5.0)


def test_orthant_distance_propagates_nan_like_the_generic_one():
    cone = NonnegativeOrthant(3)
    y = np.array([[np.nan, 1.0, -2.0], [3.0, -np.inf, 4.0], [-1.0, 0.0, -0.0]])
    got = cone.dist_neg(y)
    np.testing.assert_array_equal(got, [np.nan, 5.0, 0.0])
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(got[[0, 2]], Cone.dist_neg(cone, y[[0, 2]]))
    assert cone.dist_neg([3.0, -1.0, 4.0]) == 5.0


def test_soc_member_is_fixed():
    cone = SecondOrderCone(3)
    y = np.array([2.0, 1.0, 0.5])  # ||u|| < t
    np.testing.assert_allclose(cone.project(y), y)


def test_soc_boundary_case_brute_force():
    # polar-boundary point (t, u) = (0, -1); closed form gives (0.5, -0.5)
    cone = SecondOrderCone(2)
    y = np.array([0.0, -1.0])
    proj = cone.project(y)
    np.testing.assert_allclose(proj, [0.5, -0.5], atol=1e-12)
    # optimality against sampled members of the cone
    gen = np.random.default_rng(0)
    u = gen.uniform(-4.0, 4.0, 20000)
    t = np.abs(u) + gen.uniform(0.0, 4.0, 20000)  # (t, u) with t >= |u|
    members = np.stack([t, u], axis=1)
    dists = np.linalg.norm(members - y, axis=1)
    assert np.linalg.norm(proj - y) <= dists.min() + 1e-9
    # and the projection itself is a member
    assert proj[0] >= abs(proj[1]) - 1e-12


def test_soc_dim_one_degenerates_to_halfline():
    cone = SecondOrderCone(1)
    assert cone.project(np.array([-2.0]))[0] == 0.0
    assert cone.project(np.array([3.0]))[0] == 3.0


def test_zero_cone_projections():
    cone = ZeroCone(3)
    y = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(cone.project(y), np.zeros(3))
    np.testing.assert_allclose(cone.project_dual(y), y)  # dual is everything
    assert cone.dist_neg(y) == pytest.approx(np.linalg.norm(y))


def test_orthant_and_soc_are_self_dual(rng):
    for cone in (NonnegativeOrthant(4), SecondOrderCone(5)):
        y = sample(rng, cone, 50)
        np.testing.assert_allclose(cone.project_dual(y), cone.project(y))


def test_neg_member_fixed_and_dist_zero(rng):
    for cone in ALL_CONES:
        y = sample(rng, cone, 40)
        inside = cone.project_neg(y)
        np.testing.assert_allclose(cone.project_neg(inside), inside, atol=1e-12)
        assert np.all(cone.dist_neg(inside) <= 1e-12)


def test_orthant_dist_neg_example():
    cone = NonnegativeOrthant(2)
    assert cone.dist_neg(np.array([3.0, -1.0])) == pytest.approx(3.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_moreau_decomposition(data):
    # y = proj_{-K}(y) + proj_{K*}(y), the parts orthogonal, each in its cone
    cone = data.draw(st.sampled_from(ALL_CONES), label="cone")
    y = data.draw(hnp.arrays(np.float64, cone.dim,
                             elements=st.floats(-1e3, 1e3)), label="y")
    neg = cone.project_neg(y)
    dual = cone.project_dual(y)
    scale = 1.0 + float(np.linalg.norm(y))
    np.testing.assert_allclose(neg + dual, y, rtol=0.0, atol=1e-12 * scale)
    assert abs(float(neg @ dual)) <= 1e-12 * scale ** 2
    assert cone_member(cone, dual, 1e-12 * scale, dual=True)
    assert cone_member(cone, -neg, 1e-12 * scale)


def test_idempotence(rng):
    for cone in ALL_CONES:
        y = sample(rng, cone, 200)
        p = cone.project(y)
        np.testing.assert_allclose(cone.project(p), p, atol=1e-12)


def test_nonexpansiveness(rng):
    for cone in ALL_CONES:
        y1 = sample(rng, cone, 200)
        y2 = sample(rng, cone, 200)
        lhs = np.linalg.norm(cone.project(y1) - cone.project(y2), axis=-1)
        rhs = np.linalg.norm(y1 - y2, axis=-1)
        assert np.all(lhs <= rhs + 1e-12)


def test_distance_triangle_inequality(rng):
    for cone in ALL_CONES:
        y = sample(rng, cone, 200)
        yp = sample(rng, cone, 200)
        lhs = cone.dist(y + yp)
        rhs = cone.dist(y) + np.linalg.norm(yp, axis=-1)
        assert np.all(lhs <= rhs + 1e-10)


def test_sign_reflection(rng):
    for cone in ALL_CONES:
        y = sample(rng, cone, 100)
        np.testing.assert_allclose(cone.dist(-y), cone.dist_neg(y), atol=1e-12)


def test_dist_neg_sq_gradient_matches_finite_differences(rng):
    h = 1e-6
    for cone in ALL_CONES:
        for _ in range(5):
            y = sample(rng, cone)
            grad = cone.dist_neg_sq_grad(y)
            fd = np.zeros_like(y)
            for i in range(cone.dim):
                e = np.zeros(cone.dim)
                e[i] = h
                fd[i] = (cone.dist_neg(y + e) ** 2 - cone.dist_neg(y - e) ** 2) / (2 * h)
            denom = max(np.linalg.norm(grad), 1.0)
            assert np.linalg.norm(fd - grad) / denom < 1e-6


def test_product_dim_bookkeeping():
    cone = ProductCone([ZeroCone(2), SecondOrderCone(3)])
    assert cone.dim == 5
    y = np.arange(5.0)
    out = cone.project(y)
    np.testing.assert_allclose(out[:2], 0.0)
