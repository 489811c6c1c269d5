"""Phase-sensitivity chain: error propagation, zero-phase limits, closed forms.

Reference numbers in this file were frozen from independent evaluations of
the closed-form expressions and of the cascade in 60-digit arithmetic at
probe offset 1e-20, cross-checked against the truncated-Fock simulator at
small gain.
"""

import math

import numpy as np
import pytest

from su12sim.gaussian import InputState
from su12sim.interferometer import InterferometerConfig
from su12sim.sensitivity import (
    DetectorWeights,
    asymptote_high_gain,
    closed_form_limit,
    closed_form_offset,
    closed_form_offset_highgain,
    mean_derivative,
    n_total,
    n_total_closed_form,
    phase_sensitivity,
    sensitivity_from_moments,
    sensitivity_moments,
    su11_benchmark,
    zero_phase_limit,
)

VAC = InputState.vacuum()

# balanced beta1 = beta2 = 3, weights (1, 0, 1), phi1 = 1e-2 / 1e-3 / 1e-4
LADDER_3_3 = (0.018095896431221892, 0.017398378233867941, 0.017391261894118434)
# its zero-phase limit; 60 digits give 0.01739118999705534529
LIMIT_3_3 = 0.017391189997055346


def test_weights_from_ratios():
    w = DetectorWeights.from_ratios(-0.5, 2.0)
    assert (w.w1, w.w2, w.w3) == (1.0, -0.5, 2.0)


def test_weights_normalized_pivot():
    w = DetectorWeights(0.5, -2.0, 1.0).normalized()
    # largest-magnitude entry becomes +1
    assert w.w2 == 1.0
    assert np.isclose(w.w1, -0.25)
    assert isinstance(w.w1, float)


def test_vacuum_invariant_values():
    assert np.isclose(DetectorWeights(1, 0, 1).vacuum_invariant(), 1.0)
    assert np.isclose(DetectorWeights(1, 1, 0).vacuum_invariant(), 0.0)
    assert np.isclose(DetectorWeights(1, -0.3, -0.3).vacuum_invariant(), 1 / 3)
    assert np.isclose(DetectorWeights(0, 1, 1).vacuum_invariant(), 1 / 3)


def test_report_consistency():
    cfg = InterferometerConfig.balanced(3.0, 3.0, phi1=1e-3)
    rep = phase_sensitivity(cfg, VAC, (1, 0, 1))
    assert rep.delta_phi == pytest.approx(
        np.sqrt(rep.variance) / abs(rep.derivative)
    )


def test_sensitivity_is_weights_applied_to_moments():
    """phase_sensitivity is the composition of the two layers, bit for bit,
    including the signal-free guard of the conserved difference."""
    configs = (InterferometerConfig.balanced(3.0, 3.0, phi1=1e-3),
               InterferometerConfig.balanced(2.0, 2.5, phi1=0.3, phi2=0.1, phi3=-0.2))
    states = (VAC, *(InputState.coherent(p, 0.7 - 0.4j) for p in (1, 2, 3)))
    weights = ((1.0, 0.0, 1.0), (1.0, -1.0, -1.0), (0.5, -2.0, 0.25),
               DetectorWeights(1.0, -0.3, -0.3))
    for cfg in configs:
        for state in states:
            for j in (1, 2, 3):
                for method in ("analytic", "numeric"):
                    moments = sensitivity_moments(cfg, state, j, method)
                    for w in weights:
                        direct = phase_sensitivity(cfg, state, w, j, method)
                        assert direct == sensitivity_from_moments(moments, w)
    guarded = phase_sensitivity(configs[0], VAC, (1.0, -1.0, -1.0))
    assert guarded.delta_phi == np.inf
    assert guarded.variance == 0.0 and guarded.derivative == 0.0


def test_analytic_derivative_matches_numeric():
    cfg = InterferometerConfig.balanced(2.0, 2.5, phi1=0.3, phi2=0.1)
    state = InputState.coherent(1, 0.4 + 0.2j)
    for j in (1, 2, 3):
        da = mean_derivative(cfg, state, (1.0, 0.5, -0.25), j)
        dn = mean_derivative(cfg, state, (1.0, 0.5, -0.25), j, method="numeric")
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


def test_n_total_matches_closed_form():
    assert np.isclose(n_total((3.0, 3.0)), 59.24657102639173, rtol=1e-12)
    for b1 in (0.5, 2.0, 4.5):
        for b2 in (1.0, 3.0, 5.0):
            assert np.isclose(
                n_total((b1, b2)), n_total_closed_form(b1, b2), atol=1e-10
            )


def test_n_total_accepts_config_and_state():
    cfg = InterferometerConfig.balanced(2.0, 2.0)
    base = n_total(cfg)
    boosted = n_total(cfg, InputState.coherent(3, 2.0))
    assert boosted > base
