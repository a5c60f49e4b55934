import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simalm.experiments import make_sectors
from simalm.linalg import soft_threshold_offdiag, spectral_norm


def assert_upper_bounds_top_singular_value(M):
    top = scipy.linalg.svdvals(M)[0]
    assert spectral_norm(M) >= top * (1.0 - 1e-12)
    assert spectral_norm(M) == pytest.approx(top, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=30),
                  elements=st.floats(-1e3, 1e3)))
def test_spectral_norm_is_an_upper_bound(M):
    assert_upper_bounds_top_singular_value(M)


def _close_top_singular_values():
    """50x50 matrix with singular values 1, 1 - 1e-4, then 0.5 down to 0.01."""
    gen = np.random.default_rng(0)
    U, _ = np.linalg.qr(gen.standard_normal((50, 50)))
    V, _ = np.linalg.qr(gen.standard_normal((50, 50)))
    s = np.concatenate([[1.0, 1.0 - 1e-4], np.linspace(0.5, 0.01, 48)])
    return (U * s) @ V.T


@pytest.mark.parametrize("M", [
    make_sectors(100, 10, np.random.default_rng(1)),
    _close_top_singular_values(),
], ids=["desk_sectors", "close_top_values"])
def test_spectral_norm_upper_bounds_hard_spectra(M):
    assert_upper_bounds_top_singular_value(M)


def test_spectral_norm_shapes():
    assert spectral_norm(np.zeros((0, 4))) == 0.0
    with pytest.raises(ValueError):
        spectral_norm(np.ones(3))


def test_spectral_norm_deterministic(rng):
    M = rng.standard_normal((8, 8))
    assert spectral_norm(M) == spectral_norm(M)


def test_soft_threshold_keeps_diagonal():
    M = np.array([[2.0, 0.3, -0.9], [0.3, -1.0, 0.05], [-0.9, 0.05, 0.2]])
    T = soft_threshold_offdiag(M, 0.4)
    np.testing.assert_allclose(np.diag(T), np.diag(M))
    assert T[0, 1] == 0.0
    assert T[0, 2] == pytest.approx(-0.5)
    assert T[1, 2] == 0.0
