import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import zeta

from simalm.bounds import (BoundInputs, bound_curves, bound_report,
                           inverse_power_series)
from simalm.outer_alm import Schedule, ScheduleError

FIELDS = ("theta0_err", "lambda_star_norm", "kappa", "L_f", "L_h_theta")


def inputs(rho0=1.0, alpha0=0.1, c=1.0, beta=1.0, tau=0.5, **overrides):
    base = dict(theta0_err=1.0, lambda_star_norm=0.8, kappa=1.0, L_f=0.3,
                L_h_theta=0.2)
    base.update(overrides)
    schedule = Schedule(rho0, alpha0, c, beta, tau)
    return BoundInputs(schedule, **base)


def constants(i):
    return bound_report(i)["constants"]


def at_epochs(i, name, epochs):
    """A geometric curve at epochs: row k of a trace holds epoch k - 1."""
    return bound_curves(i, np.asarray(epochs, dtype=float) + 1.0)[name]


def test_series_matches_zeta():
    for p in (1.001, 1.5, 2.0, 2.002, 4.0):
        assert abs(inverse_power_series(p) - zeta(p)) < 1e-12
    with pytest.raises(ValueError):
        inverse_power_series(1.0)
    for p in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="exponent must be finite"):
            inverse_power_series(p)


def test_multiplier_radius_trivial_cases():
    # sqrt(2 rho) sqrt(alpha0) zeta(1+c) + rho kappa theta0_err / (1-tau)
    # + ||lambda_0 - lambda*||, with lambda_0 = 0
    series = np.sqrt(0.1) * zeta(2.0)
    # theta0 = theta*: the inexactness series and the starting distance
    i = inputs(rho0=2.0, theta0_err=0.0, lambda_star_norm=0.4)
    assert constants(i)["c_lambda"] == pytest.approx(2.0 * series + 0.4, rel=1e-12)
    # rho=1, kappa=1, tau=0.5, unit parameter error, lambda* = 0
    i = inputs(theta0_err=1.0, lambda_star_norm=0.0, kappa=1.0, tau=0.5)
    assert constants(i)["c_lambda"] == pytest.approx(np.sqrt(2.0) * series + 2.0,
                                                     rel=1e-12)


def test_dual_gap_constant_vanishes_for_perfect_runs():
    # theta0 = theta* and lambda* = 0: b_g = 2 alpha0 zeta(1+c)^2, linear in
    # alpha0, so it vanishes as the inner solves become exact
    for alpha0 in (0.1, 1e-4, 1e-12):
        i = inputs(alpha0=alpha0, theta0_err=0.0, lambda_star_norm=0.0)
        bg = constants(i)["b_g"]
        assert bg == pytest.approx(2.0 * alpha0 * zeta(2.0) ** 2, rel=1e-12)
        assert bound_curves(i, 7)["dual_gap_bound"] == pytest.approx(bg / 7.0,
                                                                      rel=1e-15)


def test_infeasibility_bound_reduces_to_first_term():
    # theta0 = theta*: C2 is the inexactness series alone
    rho, alpha0, lam = 2.0, 0.1, 0.3
    i = inputs(rho0=rho, alpha0=alpha0, theta0_err=0.0, lambda_star_norm=lam)
    series = np.sqrt(alpha0) * zeta(2.0)
    radius = np.sqrt(2.0 * rho) * series + lam
    bg = lam ** 2 / (2.0 * rho) + radius * np.sqrt(2.0 / rho) * series
    C1 = np.sqrt(2.0 * bg / rho + (radius / rho) ** 2)
    C2 = np.sqrt(2.0 / rho) * series
    ks = np.array([1.0, 4.0, 9.0])
    assert bound_curves(i, ks)["v_k_bound"] == pytest.approx(
        C1 / np.sqrt(ks) + C2 / ks, rel=1e-12)
    # as alpha0 -> 0 the second term fades and C1 -> sqrt(2) ||lambda*|| / rho
    i = inputs(rho0=rho, alpha0=1e-30, theta0_err=0.0, lambda_star_norm=lam)
    assert bound_curves(i, ks)["v_k_bound"] == pytest.approx(
        np.sqrt(2.0) * lam / rho / np.sqrt(ks), rel=1e-12)


def test_infeasibility_bound_strictly_decreasing():
    i = inputs()
    ks = np.arange(1, 60)
    vals = bound_curves(i, ks)["v_k_bound"]
    assert np.all(np.diff(vals) < 0)


def test_primal_bounds_signs():
    # u_const / k above f(xbar_k) - f*, and below it -((rho/2) V(k)^2 +
    # ||lambda*|| V(k)) < 0, whose magnitude the lower curve holds
    i = inputs(rho0=1.0, lambda_star_norm=0.8)
    curves = bound_curves(i, 3)
    assert curves["subopt_upper_bound"] == pytest.approx(constants(i)["u_const"] / 3)
    v = curves["v_k_bound"]
    assert curves["subopt_lower_bound"] == pytest.approx(0.5 * v ** 2 + 0.8 * v)
    assert curves["subopt_lower_bound"] > 0


def test_zeroed_misspecification_never_larger():
    present = inputs()
    zeroed = inputs(theta0_err=0.0)
    for name in ("c_lambda", "b_g", "u_const"):
        assert constants(zeroed)[name] <= constants(present)[name], name
    ks = [1, 5, 20]
    assert np.all(bound_curves(zeroed, ks)["v_k_bound"]
                  <= bound_curves(present, ks)["v_k_bound"])
    gp = inputs(beta=1.05, tau=0.5)
    gz = inputs(beta=1.05, tau=0.5, theta0_err=0.0)
    assert constants(gz)["c_lambda_prime"] <= constants(gp)["c_lambda_prime"]
    # B_k / beta^k at epochs k: the ordering of B_k, as beta^k is shared
    epochs = [0, 3, 10]
    assert np.all(at_epochs(gz, "subopt_upper_bound", epochs)
                  <= at_epochs(gp, "subopt_upper_bound", epochs))


def test_geometric_radius_trivial_case():
    # theta0 = theta* and lambda* = 0: only sqrt(2 alpha0 rho0) zeta(1+c) is left
    i = inputs(rho0=3.0, beta=1.05, alpha0=0.1, theta0_err=0.0,
               lambda_star_norm=0.0)
    assert constants(i)["c_lambda_prime"] == pytest.approx(
        np.sqrt(0.6) * zeta(2.0), rel=1e-12)
    i = inputs(rho0=3.0, beta=1.05, alpha0=0.1, theta0_err=0.0,
               lambda_star_norm=0.4)
    assert constants(i)["c_lambda_prime"] == pytest.approx(
        np.sqrt(0.6) * zeta(2.0) + 0.4, rel=1e-12)


def test_geometric_requires_compatible_rate():
    # no geometric schedule with beta * tau >= 1 can be built
    with pytest.raises(ScheduleError, match="beta \\* tau"):
        inputs(beta=1.2, tau=0.91)


def test_bk_matches_formula_and_decreases():
    i = inputs(beta=1.05, tau=0.6)
    s = i.schedule
    report = bound_report(i)
    cp = report["constants"]["c_lambda_prime"]
    delta = 1.05 * 0.6

    def want(k):
        return ((2 * cp + i.lambda_star_norm) ** 2 / s.rho0
                + s.rho0 * (i.L_h_theta * i.theta0_err * delta ** k
                            + i.L_f / (s.rho0 * i.L_h_theta)) ** 2
                + s.alpha0 / (k + 1) ** (2 * (1 + s.c)))

    assert report["constants"]["b_0"] == pytest.approx(want(0), rel=1e-12)
    assert at_epochs(i, "subopt_upper_bound", 4) == pytest.approx(
        want(4) / 1.05 ** 4, rel=1e-12)
    epochs = np.arange(0, 30)
    sub = at_epochs(i, "subopt_upper_bound", epochs)
    assert np.all(np.diff(sub * 1.05 ** epochs) < 0)  # B_k
    assert np.all(np.diff(sub) < 0)


def test_bk_theta_free_constraints_limit():
    # constraint map independent of theta: completed square degenerates,
    # the pre-completion form applies and stays finite
    i = inputs(beta=1.05, tau=0.6, L_h_theta=0.0)
    s = i.schedule
    cp = constants(i)["c_lambda_prime"]
    delta = 1.05 * 0.6
    want = ((2 * cp + i.lambda_star_norm) ** 2 / s.rho0
            + 2.0 * i.L_f * i.theta0_err * delta ** 2
            + s.alpha0 / 3.0 ** (2 * (1 + s.c)))
    assert at_epochs(i, "subopt_upper_bound", 2) == pytest.approx(
        want / 1.05 ** 2, rel=1e-12)


def test_geometric_infeasibility_bound_form():
    i = inputs(beta=1.05, tau=0.6)
    cp = constants(i)["c_lambda_prime"]
    epochs = np.array([0.0, 2.0, 7.0])
    want = (2 * cp / i.schedule.rho0
            + i.L_h_theta * i.theta0_err * i.delta ** epochs) / 1.05 ** epochs
    assert at_epochs(i, "v_k_bound", epochs) == pytest.approx(want, rel=1e-12)
    vals = at_epochs(i, "v_k_bound", np.arange(0, 25))
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
@example(i=BoundInputs(Schedule(623.6767341839956, 0.0806804056639297,
                                2.645477016829493, 1.0, 0.010000000000000002),
                       theta0_err=6.363867389653089,
                       lambda_star_norm=4.204691649466291,
                       kappa=10.689192737099365, L_f=0.0,
                       L_h_theta=5.145796259806507), k_max=1)
def test_bound_report_shapes_and_consistency(i, k_max):
    # bound_report's curves have the bits of bound_curves over rows
    # 1..k_max, and at row 1, where every power, square root and division by
    # k is exact, the bits of the reported constants' closed forms. The
    # closed forms square by v * v, the correctly rounded square an array's
    # ** 2 takes: a Python float's ** 2 goes through libm's pow, which can
    # miss it by an ulp, as at the example's v = 220.858488491211
    report = bound_report(i, k_max=k_max)
    ks = np.arange(1.0, k_max + 1.0)
    curves = report["curves"]
    assert set(curves) == {"v_k_bound", "subopt_upper_bound",
                           "subopt_lower_bound", "dual_gap_bound"}
    for name, curve in bound_curves(i, ks).items():
        assert same_bits(curves[name], curve), name
    first = {name: curve[0] for name, curve in curves.items()}
    constants = report["constants"]
    if not i.schedule.is_geometric:
        assert set(constants) == {"c_lambda", "b_g", "C1", "C2", "u_const"}
        v = constants["C1"] + constants["C2"]
        assert same_bits(first["v_k_bound"], v)
        assert same_bits(first["subopt_upper_bound"], constants["u_const"])
        assert same_bits(first["subopt_lower_bound"],
                         0.5 * i.schedule.rho0 * (v * v) + i.lambda_star_norm * v)
        assert same_bits(first["dual_gap_bound"], constants["b_g"])
    else:
        assert set(constants) == {"c_lambda_prime", "b_0"}
        assert same_bits(first["v_k_bound"],
                         2.0 * constants["c_lambda_prime"] / i.schedule.rho0
                         + i.L_h_theta * i.theta0_err)
        assert same_bits(first["subopt_upper_bound"], constants["b_0"])
        assert same_bits(curves["subopt_lower_bound"], curves["subopt_upper_bound"])
        assert np.all(np.isnan(curves["dual_gap_bound"]))


def test_geometric_curves_far_out_read_their_limit():
    # beta^(k-1) overflows past k ~ 14,550 at beta = 1.05; the geometric
    # curves then read 0, their limit, without an overflow warning (tier-1
    # turns a RuntimeWarning into an error)
    i = BoundInputs(Schedule(1.0, 1e-3, 1.0, 1.05, 0.91), theta0_err=1.0,
                    lambda_star_norm=1.0)
    curves = bound_curves(i, [15000.0])
    for name in ("v_k_bound", "subopt_upper_bound", "subopt_lower_bound"):
        assert curves[name].tolist() == [0.0], name
    assert np.isnan(curves["dual_gap_bound"]).all()


@pytest.mark.parametrize("beta", [1.0, 1.05])
def test_bound_report_over_many_rows(beta):
    # a k_max far past the overflow of beta^(k-1): every curve stays
    # finite and nonnegative, the geometric ones reach 0 and the constant
    # ones decrease; the report's curves are bound_curves' over the rows
    i = inputs(beta=beta, tau=0.9)
    k_max = 20_000
    report = bound_report(i, k_max=k_max)
    ks = np.arange(1.0, k_max + 1.0)
    for name, curve in bound_curves(i, ks).items():
        assert same_bits(report["curves"][name], curve), name
    for name in ("v_k_bound", "subopt_upper_bound", "subopt_lower_bound"):
        curve = report["curves"][name]
        assert curve.shape == (k_max,)
        assert np.all(np.isfinite(curve)) and np.all(curve >= 0.0), name
        assert np.all(np.diff(curve) <= 0.0), name
        if beta > 1.0:
            assert curve[-1] == 0.0, name


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
    for i in (inputs(), inputs(beta=1.05)):
        with pytest.raises(ValueError, match="k must be at least 1"):
            for ks in ([0.0, 1.0], [np.nan, 2.0]):
                bound_curves(i, ks)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", FIELDS)
def test_non_finite_input_is_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        inputs(**{name: value})
