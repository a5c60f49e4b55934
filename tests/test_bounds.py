import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

from simalm.bounds import (BoundInputs, b_g, b_k, bound_curves, bound_report,
                           c_lambda, c_lambda_prime, dual_gap_bound,
                           infeasibility_bound_geometric,
                           inverse_power_series, primal_subopt_lower,
                           primal_subopt_upper, u_const, v_of_k)
from simalm.outer_alm import Schedule, ScheduleError

FIELDS = ("theta0_err", "lambda_star_norm", "kappa", "L_f", "L_h_theta")


def inputs(rho0=1.0, alpha0=0.1, c=1.0, beta=1.0, tau=0.5, **overrides):
    base = dict(theta0_err=1.0, lambda_star_norm=0.8, kappa=1.0, L_f=0.3,
                L_h_theta=0.2)
    base.update(overrides)
    schedule = Schedule(rho0, alpha0, c, beta, tau)
    return BoundInputs(schedule, **base)


def test_series_matches_zeta():
    for p in (1.001, 1.5, 2.0, 2.002, 4.0):
        assert abs(inverse_power_series(p) - zeta(p)) < 1e-12
    with pytest.raises(ValueError):
        inverse_power_series(1.0)


def test_multiplier_radius_trivial_cases():
    # sqrt(2 rho) sqrt(alpha0) zeta(1+c) + rho kappa theta0_err / (1-tau)
    # + ||lambda_0 - lambda*||, with lambda_0 = 0
    series = np.sqrt(0.1) * zeta(2.0)
    # theta0 = theta*: the inexactness series and the starting distance
    i = inputs(rho0=2.0, theta0_err=0.0, lambda_star_norm=0.4)
    assert c_lambda(i) == pytest.approx(2.0 * series + 0.4, rel=1e-12)
    # rho=1, kappa=1, tau=0.5, unit parameter error, lambda* = 0
    i = inputs(theta0_err=1.0, lambda_star_norm=0.0, kappa=1.0, tau=0.5)
    assert c_lambda(i) == pytest.approx(np.sqrt(2.0) * series + 2.0, rel=1e-12)


def test_dual_gap_constant_vanishes_for_perfect_runs():
    # theta0 = theta* and lambda* = 0: b_g = 2 alpha0 zeta(1+c)^2, linear in
    # alpha0, so it vanishes as the inner solves become exact
    for alpha0 in (0.1, 1e-4, 1e-12):
        i = inputs(alpha0=alpha0, theta0_err=0.0, lambda_star_norm=0.0)
        assert b_g(i) == pytest.approx(2.0 * alpha0 * zeta(2.0) ** 2, rel=1e-12)
        assert dual_gap_bound(i, 7) == pytest.approx(b_g(i) / 7.0, rel=1e-15)


def test_infeasibility_bound_reduces_to_first_term():
    # theta0 = theta*: C2 is the inexactness series alone
    rho, alpha0, lam = 2.0, 0.1, 0.3
    i = inputs(rho0=rho, alpha0=alpha0, theta0_err=0.0, lambda_star_norm=lam)
    series = np.sqrt(alpha0) * zeta(2.0)
    radius = np.sqrt(2.0 * rho) * series + lam
    bg = lam ** 2 / (2.0 * rho) + radius * np.sqrt(2.0 / rho) * series
    C1 = np.sqrt(2.0 * bg / rho + (radius / rho) ** 2)
    C2 = np.sqrt(2.0 / rho) * series
    for k in (1, 4, 9):
        assert v_of_k(i, k) == pytest.approx(C1 / np.sqrt(k) + C2 / k, rel=1e-12)
    # as alpha0 -> 0 the second term fades and C1 -> sqrt(2) ||lambda*|| / rho
    i = inputs(rho0=rho, alpha0=1e-30, theta0_err=0.0, lambda_star_norm=lam)
    for k in (1, 4, 9):
        assert v_of_k(i, k) == pytest.approx(np.sqrt(2.0) * lam / rho / np.sqrt(k),
                                             rel=1e-12)


def test_infeasibility_bound_strictly_decreasing():
    i = inputs()
    ks = np.arange(1, 60)
    vals = v_of_k(i, ks)
    assert np.all(np.diff(vals) < 0)


def test_primal_bounds_signs():
    i = inputs()
    assert primal_subopt_upper(i, 3) == pytest.approx(u_const(i) / 3)
    assert primal_subopt_lower(i, 3) < 0


def test_zeroed_misspecification_never_larger():
    present = inputs()
    zeroed = inputs(theta0_err=0.0)
    assert c_lambda(zeroed) <= c_lambda(present)
    assert b_g(zeroed) <= b_g(present)
    assert u_const(zeroed) <= u_const(present)
    for k in (1, 5, 20):
        assert v_of_k(zeroed, k) <= v_of_k(present, k)
    gp = inputs(beta=1.05, tau=0.5)
    gz = inputs(beta=1.05, tau=0.5, theta0_err=0.0)
    assert c_lambda_prime(gz) <= c_lambda_prime(gp)
    for k in (0, 3, 10):
        assert b_k(gz, k) <= b_k(gp, k)


def test_geometric_radius_trivial_case():
    # theta0 = theta* and lambda* = 0: only sqrt(2 alpha0 rho0) zeta(1+c) is left
    i = inputs(rho0=3.0, beta=1.05, alpha0=0.1, theta0_err=0.0,
               lambda_star_norm=0.0)
    assert c_lambda_prime(i) == pytest.approx(np.sqrt(0.6) * zeta(2.0), rel=1e-12)
    i = inputs(rho0=3.0, beta=1.05, alpha0=0.1, theta0_err=0.0,
               lambda_star_norm=0.4)
    assert c_lambda_prime(i) == pytest.approx(np.sqrt(0.6) * zeta(2.0) + 0.4,
                                              rel=1e-12)


def test_geometric_requires_compatible_rate():
    # no geometric schedule with beta * tau >= 1 can be built
    with pytest.raises(ScheduleError, match="beta \\* tau"):
        inputs(beta=1.2, tau=0.91)
    # and the geometric formulas refuse a constant schedule
    i = inputs(beta=1.0, tau=0.91)
    with pytest.raises(ValueError, match="needs beta > 1"):
        c_lambda_prime(i)
    with pytest.raises(ValueError, match="needs beta > 1"):
        b_k(i, 2)


def test_bk_matches_formula_and_decreases():
    i = inputs(beta=1.05, tau=0.6)
    s = i.schedule
    cp = c_lambda_prime(i)
    delta = 1.05 * 0.6
    k = 4
    want = ((2 * cp + i.lambda_star_norm) ** 2 / s.rho0
            + s.rho0 * (i.L_h_theta * i.theta0_err * delta ** k
                        + i.L_f / (s.rho0 * i.L_h_theta)) ** 2
            + s.alpha0 / (k + 1) ** (2 * (1 + s.c)))
    assert b_k(i, k) == pytest.approx(want, rel=1e-12)
    ks = np.arange(0, 30)
    bks = b_k(i, ks)
    assert np.all(np.diff(bks) < 0)
    assert np.all(np.diff(bks / 1.05 ** ks) < 0)


def test_bk_theta_free_constraints_limit():
    # constraint map independent of theta: completed square degenerates,
    # the pre-completion form applies and stays finite
    i = inputs(beta=1.05, tau=0.6, L_h_theta=0.0)
    s = i.schedule
    cp = c_lambda_prime(i)
    delta = 1.05 * 0.6
    want = ((2 * cp + i.lambda_star_norm) ** 2 / s.rho0
            + 2.0 * i.L_f * i.theta0_err * delta ** 2
            + s.alpha0 / 3.0 ** (2 * (1 + s.c)))
    assert b_k(i, 2) == pytest.approx(want, rel=1e-12)


def test_geometric_infeasibility_bound_form():
    i = inputs(beta=1.05, tau=0.6)
    cp = c_lambda_prime(i)
    delta = i.delta
    for k in (0, 2, 7):
        want = (2 * cp / i.schedule.rho0
                + i.L_h_theta * i.theta0_err * delta ** k) / 1.05 ** k
        assert infeasibility_bound_geometric(i, k) == pytest.approx(want, rel=1e-12)
    ks = np.arange(0, 25)
    vals = infeasibility_bound_geometric(i, ks)
    assert np.all(np.diff(vals) < 0)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def bound_inputs(draw):
    """BoundInputs in either regime; L_h_theta and theta0_err are 0 or > 0."""
    tau = draw(st.floats(0.01, 0.99), label="tau")
    beta = 1.0
    if draw(st.booleans(), label="geometric"):
        beta = draw(st.floats(1.001, 0.999 / tau), label="beta")
    schedule = Schedule(draw(st.floats(1e-2, 1e3), label="rho0"),
                        draw(st.floats(1e-8, 1.0), label="alpha0"),
                        draw(st.floats(0.05, 3.0), label="c"), beta, tau)
    zero_or_positive = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
    return BoundInputs(
        schedule,
        theta0_err=draw(zero_or_positive, label="theta0_err"),
        lambda_star_norm=draw(st.floats(0.0, 10.0), label="lambda_star_norm"),
        kappa=draw(st.floats(0.0, 100.0), label="kappa"),
        L_f=draw(st.floats(0.0, 10.0), label="L_f"),
        L_h_theta=draw(zero_or_positive, label="L_h_theta"))


@settings(max_examples=200, deadline=None)
@given(i=bound_inputs(), k_max=st.integers(1, 40))
def test_bound_report_shapes_and_consistency(i, k_max):
    # every curve of bound_curves and bound_report, and every reported
    # constant, has the bits of the public per-k or constant function
    report = bound_report(i, k_max=k_max)
    ks = np.arange(1.0, k_max + 1.0)
    curves = report["curves"]
    assert set(curves) == {"v_k_bound", "subopt_upper_bound",
                           "subopt_lower_bound", "dual_gap_bound"}
    for name, curve in bound_curves(i, ks).items():
        assert same_bits(curves[name], curve), name
    constants = report["constants"]
    if not i.schedule.is_geometric:
        assert set(constants) == {"c_lambda", "b_g", "C1", "C2", "u_const"}
        assert same_bits(curves["v_k_bound"], v_of_k(i, ks))
        assert same_bits(curves["subopt_upper_bound"], primal_subopt_upper(i, ks))
        assert same_bits(curves["subopt_lower_bound"],
                         np.abs(primal_subopt_lower(i, ks)))
        assert same_bits(curves["dual_gap_bound"], dual_gap_bound(i, ks))
        for name, constant in (("c_lambda", c_lambda), ("b_g", b_g),
                               ("u_const", u_const)):
            assert same_bits(constants[name], constant(i)), name
        # V(1) = C1 / sqrt(1) + C2 / 1, both divisions exact
        assert same_bits(constants["C1"] + constants["C2"], v_of_k(i, 1))
    else:
        assert set(constants) == {"c_lambda_prime", "b_0"}
        epochs = ks - 1.0
        assert same_bits(curves["v_k_bound"], infeasibility_bound_geometric(i, epochs))
        sub = b_k(i, epochs) / i.schedule.beta ** epochs
        assert same_bits(curves["subopt_upper_bound"], sub)
        assert same_bits(curves["subopt_lower_bound"], sub)
        assert np.all(np.isnan(curves["dual_gap_bound"]))
        assert same_bits(constants["c_lambda_prime"], c_lambda_prime(i))
        assert same_bits(constants["b_0"], b_k(i, 0))


def test_validation():
    with pytest.raises(ScheduleError):
        inputs(rho0=0.0)
    with pytest.raises(ScheduleError):
        inputs(tau=1.0)
    with pytest.raises(ScheduleError):
        inputs(c=0.0)
    rateless = Schedule(rho0=1.0, alpha0=0.1, c=1.0)
    with pytest.raises(ValueError, match="learning rate tau"):
        BoundInputs(rateless, theta0_err=0.0, lambda_star_norm=0.0)
    for name in FIELDS:
        with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
            inputs(**{name: -1.0})
    with pytest.raises(ValueError):
        v_of_k(inputs(), 0)
    with pytest.raises(ValueError):
        inputs(beta=1.05).rho  # constant-only accessor on geometric inputs


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", FIELDS)
def test_non_finite_input_is_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        inputs(**{name: value})
