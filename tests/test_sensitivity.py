"""Phase-sensitivity chain: error propagation, zero-phase limits, closed forms.

Reference numbers in this file were frozen from independent evaluations of
the closed-form expressions and of the cascade in 60-digit arithmetic at
probe offset 1e-20, cross-checked against the truncated-Fock simulator at
small gain.
"""

import hashlib
import math

import numpy as np
import pytest
from mpmath import mp

import mp_reference
from su12sim import sensitivity
from su12sim.gaussian import InputState, photon_statistics, propagate
from su12sim.interferometer import InterferometerConfig
from su12sim.optimizer import optimize_weights
from su12sim.sensitivity import (
    NonConvergentLimitError,
    asymptote_high_gain,
    closed_form_limit,
    limit_from_moments,
    mean_derivative,
    n_total,
    n_total_closed_form,
    phase_sensitivity,
    require_convergent,
    su11_benchmark,
    vacuum_invariant,
    zero_phase_limit,
    zero_phase_moments,
)

VAC = InputState.vacuum()

# balanced beta1 = beta2 = 3, weights (1, 0, 1), phi1 = 1e-2 / 1e-3 / 1e-4
LADDER_3_3 = (0.018095896431221892, 0.017398378233867941, 0.017391261894118434)
# its zero-phase limit; 60 digits give 0.01739118999705534529
LIMIT_3_3 = 0.017391189997055346


def test_vacuum_invariant_values():
    assert np.isclose(vacuum_invariant((1, 0, 1)), 1.0)
    assert np.isclose(vacuum_invariant((1, 1, 0)), 0.0)
    assert np.isclose(vacuum_invariant((1, -0.3, -0.3)), 1 / 3)
    assert np.isclose(vacuum_invariant((0, 1, 1)), 1 / 3)
    assert isinstance(vacuum_invariant((0, 1, 1)), float)
    # a stack of weight vectors gives one value each; w1 + w2 = 0 is infinite
    assert np.array_equal(vacuum_invariant([(1, 0, 1), (1, 1, 0), (1, -1, 0.2)]),
                          [1.0, 0.0, math.inf])


def test_report_consistency():
    cfg = InterferometerConfig.balanced(3.0, 3.0, phi1=1e-3)
    rep = phase_sensitivity(cfg, VAC, (1, 0, 1))
    assert rep.delta_phi == pytest.approx(
        np.sqrt(rep.variance) / abs(rep.derivative)
    )


def test_conserved_difference_is_signal_free_at_a_probe_point():
    # its variance and slope are rounding residue of large opposing terms
    cfg = InterferometerConfig.balanced(3.0, 3.0, phi1=1e-3)
    rep = phase_sensitivity(cfg, VAC, (1.0, -1.0, -1.0))
    assert rep.delta_phi == np.inf
    assert rep.variance == 0.0 and rep.derivative == 0.0


def _random_stack(rng, balanced):
    """A configuration whose phases broadcast to a (4, 5) stack, with one
    scalar configuration per element built from the same fields."""
    b = rng.uniform(0.1, 3.0, 4)
    phi1, phi2, phi3 = (rng.uniform(-np.pi, np.pi, 5), rng.uniform(-np.pi, np.pi, (4, 1)),
                        rng.uniform(-np.pi, np.pi, (4, 5)))
    if balanced:
        cfg = InterferometerConfig.balanced(b[0], b[1], phi1, phi2, phi3)
    else:
        cfg = InterferometerConfig(*b, *rng.uniform(0.0, 2.0 * np.pi, 4), phi1, phi2, phi3)
    phis = np.broadcast_arrays(phi1, phi2, phi3)
    cells = {idx: cfg.with_phases(*(float(p[idx]) for p in phis))
             for idx in np.ndindex(phis[0].shape)}
    return cfg, cells


@pytest.mark.parametrize("port", [0, 1, 2, 3])
@pytest.mark.parametrize("balanced", [True, False])
def test_stacked_sensitivity_equals_per_configuration_calls(port, balanced):
    rng = np.random.default_rng(100 + 10 * port + balanced)
    for trial in range(3):
        cfg, cells = _random_stack(rng, balanced)
        state = (VAC if port == 0 else
                 InputState.coherent(port, complex(*rng.normal(0.0, 1.0, 2))))
        phase_index = 1 + trial
        for weights in (rng.normal(size=3), (1.0, -1.0, -1.0)):
            rep = phase_sensitivity(cfg, state, weights, phase_index)
            slope = mean_derivative(cfg, state, weights, phase_index)
            assert rep.delta_phi.shape == slope.shape == (4, 5)
            for idx, one in cells.items():
                single = phase_sensitivity(one, state, weights, phase_index)
                assert (rep.delta_phi[idx], rep.mean[idx], rep.variance[idx],
                        rep.derivative[idx]) == (single.delta_phi, single.mean,
                                                 single.variance, single.derivative)
                assert isinstance(single.delta_phi, float)
                assert slope[idx] == mean_derivative(one, state, weights, phase_index)
        # the conserved difference carries no signal anywhere in the stack
        rep = phase_sensitivity(cfg, state, (1.0, -1.0, -1.0), phase_index)
        assert np.all(rep.delta_phi == np.inf) and np.all(rep.derivative == 0.0)
        if port == 0:
            assert np.all(rep.variance == 0.0)


def test_phase_point_moments_match_60_digit_cascade():
    """Mean, variance and slope of phase_sensitivity on general devices against
    mp_reference.cascade_moments: unbalanced gains up to 3, random pump and
    internal phases, complex light in all three ports, phases 1-3.  Each error
    is relative to the quantity's gross magnitude sum_i |w_i| |x_i|.  Over
    1,800 draws of these devices (seeds 0-3) the worst were 1.8e-15, 2.7e-15
    and 4.6e-14; each bound is four to six times its worst."""
    rng = np.random.default_rng(31)
    for k in range(40):
        betas, thetas = rng.uniform(0.0, 3.0, 4), rng.uniform(0.0, 2.0 * np.pi, 4)
        phis = rng.uniform(-np.pi, np.pi, 3)
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        w, j = rng.normal(size=3), 1 + k % 3
        rep = phase_sensitivity(InterferometerConfig(*betas, *thetas, *phis),
                                InputState(tuple(alpha)), w, j)
        mean, cov, slope = mp_reference.cascade_moments(alpha, betas, thetas, phis, j)
        with mp.workdps(mp_reference.DIGITS):
            for value, x, wx, bound in (
                    (rep.mean, mean, w, 1e-14),
                    (rep.variance, [c for row in cov for c in row], np.outer(w, w).ravel(), 1e-14),
                    (rep.derivative, slope, w, 2e-13)):
                ref = mp.fsum(a * b for a, b in zip(wx, x))
                gross = mp.fsum(abs(a) * abs(b) for a, b in zip(wx, x))
                assert abs(value - ref) <= bound * gross


@pytest.mark.parametrize("beta", [1.0, 3.0, 5.0])
def test_exact_slope_respects_the_bound_at_the_dark_fringe(beta):
    """Near the dark fringe, with the optimal zero-phase weights, no phase point
    beats 1/sqrt(N(N+2)) (Yurke, McCall & Klauder, PRA 33, 4033, 1986); a
    central-difference slope did, at phi1 = 1.9e-4 and beta = 3.  The least
    ratio dphi sqrt(N(N+2)) - 1 reads 6e-15, at beta = 1."""
    eps = np.logspace(-7.0, -1.0, 200)
    cfg = InterferometerConfig.balanced(beta, beta, np.concatenate((-eps, eps)))
    weights = optimize_weights(VAC, beta, beta).weights
    n = n_total((beta, beta))
    dphi = phase_sensitivity(cfg, VAC, weights).delta_phi
    assert np.all(dphi >= (1.0 - 1e-12) / np.sqrt(n * (n + 2.0)))


def _central_difference_slope(cfg, state, weights, phase_index, h=1e-5):
    """d<w.n>/dphi_j as a central difference of the Gaussian photocount means."""
    phis = np.array([cfg.phi1, cfg.phi2, cfg.phi3])
    step = h * np.eye(3)[phase_index - 1]
    up, _ = photon_statistics(propagate(cfg.with_phases(*(phis + step)), state))
    dn, _ = photon_statistics(propagate(cfg.with_phases(*(phis - step)), state))
    return float(np.dot((up - dn) / (2.0 * h), weights))


def test_analytic_derivative_matches_numeric():
    cfg = InterferometerConfig.balanced(2.0, 2.5, phi1=0.3, phi2=0.1)
    state = InputState.coherent(1, 0.4 + 0.2j)
    for j in (1, 2, 3):
        da = mean_derivative(cfg, state, (1.0, 0.5, -0.25), j)
        dn = _central_difference_slope(cfg, state, (1.0, 0.5, -0.25), j)
        assert np.isclose(da, dn, rtol=1e-6, atol=1e-9)


def test_vacuum_ladder_frozen_values():
    for eps, ref in zip((1e-2, 1e-3, 1e-4), LADDER_3_3):
        cfg = InterferometerConfig.balanced(3.0, 3.0, phi1=eps)
        rep = phase_sensitivity(cfg, VAC, (1, 0, 1))
        assert np.isclose(rep.delta_phi, ref, rtol=1e-12)


def test_zero_phase_limit_vacuum():
    res = zero_phase_limit(VAC, 3.0, 3.0, (1, 0, 1))
    assert res.status == "ok"
    assert np.isclose(res.delta_phi, LIMIT_3_3, rtol=1e-10)
    assert res.orders == (2, 1)
    assert not res.is_divergent


def test_high_gain_limit_is_exact():
    # 60 digits give 4.890206489018083e-05; a three-rung ladder from
    # eps = 1e-2 read 6.557e-5 here, its eps^2 error grown with the gain
    res = zero_phase_limit(VAC, 6.0, 6.0, (1, 0, 1))
    assert res.orders == (2, 1)
    assert np.isclose(res.delta_phi, 4.890206489018083e-05, rtol=1e-14)


def test_limit_matches_closed_form_on_gain_grid():
    for b1 in np.linspace(0.1, 6.0, 8):
        for b2 in np.linspace(0.1, 6.0, 8):
            res = zero_phase_limit(VAC, b1, b2, (1, 1, 0))
            assert np.isclose(res.delta_phi, closed_form_limit(b1, b2),
                              rtol=1e-14, atol=0.0)


def _richardson(state, beta, weights, eps=(1e-6, 1e-7)):
    vals = [phase_sensitivity(InterferometerConfig.balanced(beta, beta, phi1=e),
                              state, weights).delta_phi for e in eps]
    q = (eps[1] / eps[0]) ** 2
    return (vals[1] - q * vals[0]) / (1.0 - q)


def test_limit_matches_fine_ladders():
    cases = ((VAC, (1, 0, 1)), (InputState.coherent(1, 0.5), (0, 1, 1)),
             (InputState.coherent(3, 5.0), (1, 1, 0)))
    for state, weights in cases:
        for beta in (1.0, 3.0, 4.3, 5.0, 6.0):
            res = zero_phase_limit(state, beta, beta, weights)
            assert res.orders == (2, 1)
            assert np.isclose(res.delta_phi, _richardson(state, beta, weights),
                              rtol=1e-9, atol=0.0)


def test_weak_coherent_bright_port_diverges():
    # the slope's eps^0 coefficient is rounding residue of its gross size
    # here, and the variance's is not: dphi grows like 1/eps
    res = zero_phase_limit(InputState.coherent(1, 0.01), 3.3, 3.3, (1, 0, 1))
    assert res.is_divergent
    assert res.orders == (0, 1)
    assert math.isinf(res.delta_phi)


def test_limit_rejects_bad_phase_index():
    for j in (0, 4):
        with pytest.raises(ValueError):
            zero_phase_limit(VAC, 3.0, 3.0, (1, 0, 1), phase_index=j)


def test_limit_takes_one_point():
    """Gain arrays and weight stacks belong to limit_from_moments; the
    one-point function says so instead of failing a scalar conversion."""
    with pytest.raises(ValueError, match="one point.*limit_from_moments"):
        zero_phase_limit(VAC, np.array([1.0, 2.0]), 3.0, (1, 0, 1))
    with pytest.raises(ValueError, match="one point.*limit_from_moments"):
        zero_phase_limit(VAC, 1.0, 3.0, np.eye(3))


def test_query_takes_one_splitter_matrix_per_call(monkeypatch):
    """A zero-phase limit builds R once and evaluates the photocount closed
    form once; n_total builds R once and propagates nothing."""
    calls = []
    for name in ("photocounts", "splitter_matrix", "propagate"):
        def counting(*args, _name=name, _fn=getattr(sensitivity, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(sensitivity, name, counting)
    state = InputState.coherent(3, 1.5)
    zero_phase_limit(state, 2.0, 3.0, (1.0, 0.0, 1.0), phase_index=2)
    assert sorted(calls) == ["photocounts", "splitter_matrix"]
    calls.clear()
    n_total((2.0, 3.0), state)
    assert calls == ["splitter_matrix"]


def test_overflowing_phase_point_is_nan_not_signal_free():
    """Moments that overflow give nan, as the zero-phase path does; a finite
    cell of the same stack keeps its value, and a signal-free one stays inf."""
    cfg = InterferometerConfig.balanced(np.array([3.0, 800.0]), 3.0, phi1=1e-3)
    dphi = phase_sensitivity(cfg, VAC, (1, 0, 1)).delta_phi
    one = InterferometerConfig.balanced(3.0, 3.0, phi1=1e-3)
    assert dphi[0] == phase_sensitivity(one, VAC, (1, 0, 1)).delta_phi
    assert math.isnan(dphi[1])
    assert math.isinf(phase_sensitivity(one, VAC, (1, -1, -1)).delta_phi)


def test_limit_matches_bright_pair_closed_form():
    # weights (1, 1, 0) single out the combination whose limit has the
    # compact closed form
    res = zero_phase_limit(VAC, 3.0, 3.0, (1, 1, 0))
    assert np.isclose(res.delta_phi, closed_form_limit(3.0, 3.0), rtol=1e-8)


def test_vacuum_sensitivity_depends_only_on_invariant():
    cfg = InterferometerConfig.balanced(3.0, 3.0, phi1=1e-3)
    a = phase_sensitivity(cfg, VAC, (1.0, -0.3, -0.3)).delta_phi
    b = phase_sensitivity(cfg, VAC, (0.0, 1.0, 1.0)).delta_phi
    assert np.isclose(a, b, rtol=1e-12)


# reference closed forms of the bright-pair-sum sensitivity away from zero phase
def closed_form_offset(beta1, beta2, x):
    """Sensitivity of the bright-pair-sum detector at recombiner offset x.

    Valid for vacuum input with weights (1, 1, 0) when the recombiner
    pump phases track the internal phase so that the result depends only
    on the combination x = phi1 + theta4 (with theta3 = pi - phi1).
    """
    num = np.sinh(beta1) * np.abs(np.cos(x / 2.0))
    den = np.cosh(beta2 / 2.0) ** 2 * np.sinh(beta1) ** 2 * np.abs(np.sin(x))
    root = np.sqrt(2.0 * np.sinh(beta1) ** 2 * np.cos(x) + np.cosh(2.0 * beta1) + 3.0)
    return num / den * root


def closed_form_offset_highgain(beta2, x):
    """High-gain (large beta1) simplification of closed_form_offset."""
    return (np.sqrt(2.0 * np.cos(x) + 2.0) * np.abs(np.cos(x / 2.0))
            / (np.cosh(beta2 / 2.0) ** 2 * np.abs(np.sin(x))))


def test_offset_closed_form_tracks_direct_evaluation():
    """Away from the self-undoing point, the bright-pair sensitivity obeys
    the compact expression in x = phi1 + theta4, provided the pump design
    keeps phi1 + theta3 = pi.  The split of x between the phase shift and
    the last pump phase is immaterial."""
    for x in (0.37, 1.0, 2.0, 2.9):
        for phi1 in (0.05, 0.3):
            cfg = InterferometerConfig(
                beta1=3.0, beta2=3.0, beta3=3.0, beta4=3.0,
                theta1=0.0, theta2=0.0,
                theta3=np.pi - phi1, theta4=x - phi1,
                phi1=phi1,
            )
            direct = phase_sensitivity(cfg, VAC, (1, 1, 0)).delta_phi
            assert np.isclose(direct, closed_form_offset(3.0, 3.0, x), rtol=1e-12)


def test_highgain_offset_approximation():
    # at beta1 = 5 the reduced expression is already within a percent
    x = 0.3
    full = closed_form_offset(5.0, 3.0, x)
    approx = closed_form_offset_highgain(3.0, x)
    assert np.isclose(full, approx, rtol=1e-2)


def test_high_gain_asymptote_value():
    assert np.isclose(asymptote_high_gain(3.0, 3.0), 0.019732074330880384)
    ratio = closed_form_limit(5.0, 5.0) / asymptote_high_gain(5.0, 5.0)
    assert abs(ratio - 1.0) < 0.05


def test_two_mode_benchmark():
    assert np.isclose(su11_benchmark(3.0), 0.099821569668822732)


def test_coherent_port1_divergent_at_zero_phase():
    res = zero_phase_limit(InputState.coherent(1, 0.5), 3.0, 3.0, (1, 0, 1))
    assert res.status == "divergent"
    assert res.is_divergent
    assert np.isinf(res.delta_phi)


def test_coherent_port1_without_probe_weight_converges():
    res = zero_phase_limit(InputState.coherent(1, 0.5), 3.0, 3.0, (0, 1, 1))
    assert res.status == "ok"
    # 60 digits give 0.01484815504792400997
    assert np.isclose(res.delta_phi, 0.01484815504792401, rtol=1e-9)


def test_coherent_port3_converges_and_improves():
    res = zero_phase_limit(InputState.coherent(3, 5.0), 3.0, 3.0, (1, 1, 0))
    assert res.status == "ok"
    # 60 digits give 0.006107789998637501527
    assert np.isclose(res.delta_phi, 0.006107789998637502, rtol=1e-9)
    assert res.delta_phi < closed_form_limit(3.0, 3.0)


def test_third_phase_sensitivity():
    res = zero_phase_limit(VAC, 3.0, 3.0, (1, 0, 1), phase_index=3)
    # 60 digits give 0.02062458898800756
    assert np.isclose(res.delta_phi, 0.02062458898800757, rtol=1e-9)


def test_conserved_combination_carries_no_signal():
    for state in (VAC, InputState.coherent(1, 0.5), InputState.coherent(3, 2.0)):
        for j in (1, 2, 3):
            res = zero_phase_limit(state, 3.0, 3.0, (1, -1, -1), phase_index=j)
            assert res.is_divergent
            assert res.orders is None


# a (beta1, beta2) grid with a zero-gain cell, and the inputs it is checked on
GAIN_GRID = np.meshgrid([0.0, 0.4, 3.0, 5.5], [0.0, 1.7, 3.0], indexing="ij")
GRID_INPUTS = [VAC, *(InputState.coherent(port, amp) for port in (1, 2, 3)
                      for amp in (0.3, 2.0 + 1.0j))]


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("state", GRID_INPUTS, ids=lambda s: str(s.alpha))
def test_gain_stacked_limit_equals_per_configuration_calls(state):
    b1, b2 = GAIN_GRID
    weights = np.array([(1.0, 0.0, 1.0), (1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (1.0, -1.0, -1.0)])
    n = n_total((b1, b2), state)
    assert n.shape == b1.shape
    for phase_index in (1, 2, 3):
        cov, slope = moments = zero_phase_moments(state, b1, b2, phase_index)
        assert cov.shape == (2, *b1.shape, 3, 3, 3) and slope.shape == (2, *b1.shape, 2, 3)
        # one weight vector per cell, and one weight stack against every cell
        per_cell = weights[np.arange(b1.size).reshape(b1.shape) % len(weights)]
        stacked = limit_from_moments(moments, per_cell)
        every = limit_from_moments(moments, weights[:, None, None])
        for idx in np.ndindex(b1.shape):
            one = zero_phase_moments(state, b1[idx], b2[idx], phase_index)
            for x, y in zip(moments, one):
                assert np.array_equal(_bits(x[(slice(None), *idx)]), _bits(y))
            for got, want in zip(stacked, limit_from_moments(one, per_cell[idx])):
                assert np.array_equal(_bits(got[idx]), _bits(want))
            for got, want in zip(every, limit_from_moments(one, weights)):
                assert np.array_equal(_bits(got[(slice(None), *idx)]), _bits(want))
            if phase_index == 1:
                single = n_total((b1[idx], b2[idx]), state)
                assert isinstance(single, float) and n[idx] == single


def test_first_nonconvergent_cell_raises():
    dphi, p, q = np.array([0.5, math.inf, math.nan]), np.array([2, 0, 3]), np.array([1, 1, 1])
    with pytest.raises(NonConvergentLimitError, match=r"orders \(None, 1\)"):
        require_convergent(dphi, p, q)
    finite = dphi[:2], p[:2], q[:2]
    assert all(x is y for x, y in zip(require_convergent(*finite), finite))


def test_overflowing_cells_are_nan_not_divergent():
    """Moments that overflow make their cell nan in every quantity; cells that
    do not overflow keep the values of their own calls, and a single point
    with no finite moments is a guard."""
    b1 = np.array([3.0, 400.0, 1000.0])
    cov, slope = moments = zero_phase_moments(VAC, b1, 3.0)
    assert np.isnan(cov[:, 1:]).all() and np.isnan(slope[:, 1:]).all()
    dphi, p, q = require_convergent(*limit_from_moments(moments, (1.0, 0.0, 1.0)))
    assert dphi[0] == zero_phase_limit(VAC, 3.0, 3.0, (1.0, 0.0, 1.0)).delta_phi
    assert np.isnan(dphi[1:]).all()
    n = n_total((b1, 3.0))
    assert np.isfinite(n[:2]).all() and math.isnan(n[2])
    with pytest.raises(NonConvergentLimitError, match="not finite"):
        zero_phase_limit(VAC, 400.0, 3.0, (1.0, 0.0, 1.0))


def test_vacuum_phase1_leading_moments_match_closed_forms():
    """At vacuum, phase 1, the leading series terms are closed forms in the
    splitter row r = R[0] = (c1 c2, s1 c2, s2), built here from cosh and sinh:
    C2 = [[a2 + a3, a2, a3], [a2, a2, 0], [a3, 0, a3]] and d1 = 2 (a2 + a3, a2, a3),
    with a2 = r0^2 r1^2 and a3 = r0^2 r2^2.  Entry by entry the series terms
    differed from them by at most 7.7e-16 relative over 6,000 gain pairs on
    [0.1, 6] (seeds 0-19); the bound is 2.6 times that.  The uncoupled entries
    C2[1, 2] = C2[2, 1] are exact zeros."""
    b1, b2 = np.random.default_rng(0).uniform(0.1, 6.0, (2, 300))
    cov, slope = zero_phase_moments(VAC, b1, b2, 1)
    c1, s1, c2, s2 = np.cosh(b1 / 2), np.sinh(b1 / 2), np.cosh(b2 / 2), np.sinh(b2 / 2)
    a2, a3 = (c1 * c2 * s1 * c2) ** 2, (c1 * c2 * s2) ** 2
    zero = np.zeros_like(a2)
    closed_c2 = np.stack([[a2 + a3, a2, a3], [a2, a2, zero], [a3, zero, a3]]).transpose(2, 0, 1)
    closed_d1 = 2.0 * np.stack([a2 + a3, a2, a3], axis=-1)
    for got, want in ((cov[0, :, 2], closed_c2), (slope[0, :, 1], closed_d1)):
        coupled = want != 0.0
        assert np.all(got[~coupled] == 0.0)
        assert np.max(np.abs(got - want)[coupled] / want[coupled]) <= 2e-15


def test_n_total_matches_closed_form():
    assert np.isclose(n_total((3.0, 3.0)), 59.24657102639173, rtol=1e-12)
    for b1 in (0.5, 2.0, 4.5):
        for b2 in (1.0, 3.0, 5.0):
            assert np.isclose(
                n_total((b1, b2)), n_total_closed_form(b1, b2), atol=1e-10
            )


def test_n_total_counts_the_input_state():
    base = n_total((2.0, 2.0))
    boosted = n_total((2.0, 2.0), InputState.coherent(3, 2.0))
    assert boosted > base


def _query_draw(points):
    """(state, beta1, beta2, weights) of points seeded queries, drawn as the
    perfbench queries workload draws its stream."""
    rng = np.random.default_rng(1)
    ports = rng.integers(0, 4, size=points)
    amps = 10.0 ** rng.uniform(-2.0, 1.0, size=points)  # |alpha| log-uniform
    betas = rng.uniform(0.1, 6.0, size=(points, 2))
    choice = rng.integers(0, 4, size=points)
    weights = ((1.0, 0.0, 1.0), (1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (1.0, 0.5, 0.5))
    return [(VAC if port == 0 else InputState.coherent(port, amp), b1, b2, weights[k])
            for port, amp, (b1, b2), k in zip(ports.tolist(), amps.tolist(),
                                              betas.tolist(), choice.tolist())]


# sha256 of zero_phase_limit's (status, orders) on QUERY_POINTS seeded points
# x phases 1-3, drawn as the perfbench queries workload draws its stream;
# recorded while the zero-phase series came from the four float-pi mixers
QUERY_POINTS = 1000
QUERY_STATUS_SHA256 = "83b2755e1ac70555d7dac63c7c821d881d1911bb9ae1c5f2e922d2a62ac5c5a6"


def test_zero_phase_status_and_orders_are_pinned_on_a_query_draw():
    digest = hashlib.sha256()
    for state, b1, b2, weights in _query_draw(QUERY_POINTS):
        for phase_index in (1, 2, 3):
            res = zero_phase_limit(state, b1, b2, weights, phase_index)
            digest.update(repr((res.status, res.orders)).encode())
    assert digest.hexdigest() == QUERY_STATUS_SHA256


# sha256 of the raw bytes of zero_phase_moments (cov, slope) on QUERY_BYTE_POINTS
# seeded points drawn the same way x phases 1-3, of n_total on them, and of
# both on a 4 x 5 gain stack with a zero-gain row and an overflowing column;
# recorded while the splitter matrix was built with np.array
QUERY_BYTE_POINTS = 300
QUERY_BYTES_SHA256 = "fe57b0e112f77f35347d9817fea525ae7e8d43829b3647e553f2b0f45dfa056e"


def test_zero_phase_moment_bytes_are_pinned_on_a_query_draw():
    digest = hashlib.sha256()

    def update(x):
        digest.update(repr(np.shape(x)).encode())
        digest.update(np.ascontiguousarray(x, dtype=float).tobytes())

    for state, b1, b2, _ in _query_draw(QUERY_BYTE_POINTS):
        for phase_index in (1, 2, 3):
            for x in zero_phase_moments(state, b1, b2, phase_index):
                update(x)
        update(n_total((b1, b2), state))
    b1, b2 = np.meshgrid([0.0, 0.4, 3.0, 5.5], [0.1, 1.7, 3.0, 4.6, 800.0], indexing="ij")
    state = InputState.coherent(3, 2.0 + 1.0j)
    for phase_index in (1, 2, 3):
        for x in zero_phase_moments(state, b1, b2, phase_index):
            update(x)
    update(n_total((b1, b2), state))
    assert digest.hexdigest() == QUERY_BYTES_SHA256
