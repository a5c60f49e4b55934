import gc
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simalm import linalg
from simalm.experiments import make_sectors
from simalm.linalg import frobenius_distance, soft_threshold_offdiag, spectral_norm
from conftest import read_only


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


def _old_soft_threshold(M, t):
    """The two-temporary formula soft_threshold_offdiag replaced."""
    out = np.sign(M) * np.maximum(np.abs(M) - t, 0.0)
    np.fill_diagonal(out, np.diag(M))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_soft_threshold_matches_the_two_temporary_formula(seed):
    # bit for bit, signed zeros included: entries of +-0.0 and ties at +-t,
    # where the threshold leaves a zero whose sign is the product's
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 40))
    t = float(gen.uniform(0.0, 1.0)) if seed else 0.0
    M = gen.standard_normal((n, n))
    for value, share in ((0.0, 0.1), (-0.0, 0.1), (t, 0.1), (-t, 0.1)):
        M[gen.random((n, n)) < share] = value
    kept = M.copy()
    for given in (M, np.asfortranarray(M), M.T):
        got = soft_threshold_offdiag(given, t)
        assert got.view(np.int64).tolist() == \
            _old_soft_threshold(given, t).view(np.int64).tolist()
    assert M.view(np.int64).tolist() == kept.view(np.int64).tolist()


def _layout(draw, a, frozen):
    """a as a C-ordered array, an F-ordered one or a strided view, read-only
    when frozen."""
    kind = draw(st.sampled_from(["C", "F", "strided"]))
    if kind == "C":
        out = np.ascontiguousarray(a)
    elif kind == "F":
        out = np.asfortranarray(a)
    else:
        big = np.zeros((2 * a.shape[0], 3 * a.shape[1]))
        big[::2, ::-3] = a
        out = big[::2, ::-3]
    if frozen:
        out.flags.writeable = False
    return out


@st.composite
def _distance_pairs(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=12))
    elements = st.floats(-1e6, 1e6, allow_subnormal=True)
    a = draw(hnp.arrays(np.float64, shape, elements=elements))
    b = draw(hnp.arrays(np.float64, shape, elements=elements))
    return (_layout(draw, a, draw(st.booleans())),
            _layout(draw, b, draw(st.booleans())))


@settings(max_examples=150, deadline=None)
@given(_distance_pairs())
def test_frobenius_distance_is_numpy_norm_bit_for_bit(pair):
    a, b = pair
    expected = float(np.linalg.norm(a - b)).hex()
    assert frobenius_distance(a, b).hex() == expected
    # a memo hit, or a recomputation, gives the same bits
    assert frobenius_distance(a, b).hex() == expected


def test_frobenius_distance_memo_answers_only_the_same_pair(distances):
    # the distances fixture's memo, which linalg.frobenius_distance names
    # for the test
    distance = linalg.frobenius_distance
    gen = np.random.default_rng(0)
    a, b = read_only(gen.standard_normal((5, 5))), read_only(gen.standard_normal((5, 5)))
    d = distance(a, b)
    assert distances == [(id(a), id(b))]
    assert distance(a, b) == d
    assert len(distances) == 1
    # equal values in other objects, or the pair swapped, are new pairs
    twin = read_only(a)
    assert distance(twin, b) == d
    assert distance(b, a) == d
    assert distances[1:] == [(id(twin), id(b)), (id(b), id(a))]
    assert distance(a, b) == d and len(distances) == 3


def test_frobenius_distance_recomputes_a_writable_array(distances):
    distance = linalg.frobenius_distance
    gen = np.random.default_rng(1)
    a, b = gen.standard_normal((4, 6)), read_only(gen.standard_normal((4, 6)))
    first = distance(a, b)
    a += 1.0
    assert distance(a, b) == float(np.linalg.norm(a - b)) != first
    assert distances == [(id(a), id(b))] * 2
    assert not distance.entries


def test_frobenius_distance_memo_drops_a_collected_pair(distances):
    distance = linalg.frobenius_distance
    gen = np.random.default_rng(2)
    a, b, c = (read_only(gen.standard_normal((3, 3))) for _ in range(3))
    distance(a, b)
    distance(b, c)
    distance(a, a)
    assert len(distance.entries) == 3
    del a
    gc.collect()
    assert list(distance.entries) == [(id(b), id(c))]
    del c
    gc.collect()
    assert not distance.entries


# how a frozen_memo argument is made from an array's values: a frozen array
# or view, a writable array or view, a read-only view of a writable array,
# a read-only array over bytes, which no ndarray owns, and a list
_ARGUMENT_KINDS = ("frozen", "frozen view", "writable", "writable view",
                   "read-only view of writable", "over bytes", "list")


def _argument(kind, values):
    """(argument, the writable array whose writes change it, or None)."""
    if kind == "list":
        return values.ravel().tolist(), None
    if kind == "over bytes":
        return np.frombuffer(values.tobytes()).reshape(values.shape), None
    base = np.array(values)
    base.flags.writeable = kind.startswith("writable") or kind.endswith("of writable")
    out = base if kind in ("frozen", "writable") else base[::-1]
    if kind == "read-only view of writable":
        out.flags.writeable = False
    return out, base if base.flags.writeable else None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_ARGUMENT_KINDS), min_size=1, max_size=3),
       hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=4),
                  elements=st.floats(-1e6, 1e6)))
def test_frozen_memo_hits_only_the_same_frozen_objects(kinds, values):
    # a frozen_memo answers from an entry only the very objects it was
    # computed for, and only when every one is frozen; every answer is the
    # wrapped function's, bit for bit, also after a write through the base
    # of an argument; and an entry goes with any of its objects
    def weighted_sum(*args):
        calls.append(None)
        return sum((i + 1.0) * float(np.sum(a)) for i, a in enumerate(args))

    calls = []
    memo = linalg.frozen_memo(weighted_sum)
    made = [_argument(kind, values) for kind in kinds]
    args = [arg for arg, _ in made]
    all_frozen = all(map(linalg.frozen, args))
    assert all_frozen == all(kind.startswith("frozen") for kind in kinds)
    first = memo(*args)
    assert first.hex() == weighted_sum(*args).hex() and len(calls) == 2
    for arg, base in made:
        if base is not None:
            base += 1.0
        elif isinstance(arg, list):
            arg.append(1.0)
    second = memo(*args)
    assert second.hex() == weighted_sum(*args).hex()
    assert len(calls) == (3 if all_frozen else 4)
    assert len(memo.entries) == all_frozen
    # equal frozen copies are other objects
    copies = [read_only(arg) for arg in args]
    assert memo(*copies).hex() == weighted_sum(*copies).hex()
    assert len(memo.entries) == all_frozen + 1
    del made, args, arg, base, copies
    gc.collect()
    assert memo.entries == {}


@pytest.mark.parametrize("read_only_pair", [True, False])
def test_frobenius_distance_of_non_finite_pairs_warns_nothing(read_only_pair):
    def pair(x, y):
        x, y = np.array([[x, 1.0]]), np.array([[y, 1.0]])
        if read_only_pair:
            x.flags.writeable = y.flags.writeable = False
        return x, y

    inf, nan = float("inf"), float("nan")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(frobenius_distance(*pair(inf, inf)))
        assert math.isnan(frobenius_distance(*pair(nan, 0.0)))
        assert frobenius_distance(*pair(inf, 0.0)) == inf
        assert frobenius_distance(*pair(1e200, -1e200)) == inf
