import math

import numpy as np
import pytest

from su12sim import sensitivity
from su12sim.gaussian import InputState
from su12sim.interferometer import InterferometerConfig
from su12sim.optimizer import (
    AllDivergentError,
    WeightSearchSpec,
    optimize_weights,
    optimal_ratio_surface,
    phase_surface,
    scaling_curve,
    weight_surface,
)

VAC = InputState.vacuum()


def test_search_spec_weight_families():
    spec = WeightSearchSpec()
    assert np.allclose(spec.weights_at((0.5, -1.0)), (1.0, 0.5, -1.0))
    assert np.allclose(WeightSearchSpec(fixed_zero=1).weights_at((0.7,)), (0.0, 1.0, 0.7))
    assert np.allclose(WeightSearchSpec(fixed_zero=2).weights_at((0.7,)), (1.0, 0.0, 0.7))
    assert np.allclose(WeightSearchSpec(fixed_zero=3).weights_at((0.7,)), (1.0, 0.7, 0.0))


def test_vacuum_optimum_sits_in_the_valley():
    """The vacuum optimum is degenerate along a line of weight ratios; the
    refinement walk lands on the diagonal representative and the minimum
    value and its invariant are reproducible to full precision."""
    res = optimize_weights(VAC, 3.0, 3.0)
    assert np.isclose(res.value, 0.016608272166207597, rtol=1e-12)
    assert np.allclose(res.point, (-0.3, -0.3), atol=1e-9)
    assert np.isclose(res.weights.vacuum_invariant(), 1 / 3, atol=1e-9)
    assert res.limit.status == "ok"
    assert res.evaluations > 1000


def test_search_propagates_once_per_configuration(monkeypatch):
    """The weight search evaluates every candidate on one set of moments."""
    propagations = []
    propagate = sensitivity.propagate

    def counting(transform, state):
        propagations.append(state)
        return propagate(transform, state)

    monkeypatch.setattr(sensitivity, "propagate", counting)
    res = optimize_weights(VAC, 3.0, 3.0, WeightSearchSpec(rounds=3))
    assert res.evaluations == 3745
    # the zero-phase limit of the winner is a series, not a propagation
    assert len(propagations) == 1


def test_weight_surface_matches_per_cell_sensitivity():
    axis = np.linspace(-1.5, 1.5, 7)  # contains the signal-free (1, -1, -1)
    for state in (VAC, InputState.coherent(3, 1.5)):
        rows = weight_surface(state, 2.0, 3.0, bounds=(-1.5, 1.5), points=7,
                              epsilon=1e-3, phase_index=2)
        cfg = InterferometerConfig.balanced(2.0, 3.0, phi2=1e-3)
        expected = []
        for t in axis:
            for r in axis:
                d = sensitivity.phase_sensitivity(
                    cfg, state, (1.0, float(t), float(r)), 2).delta_phi
                expected.append((float(t), float(r), d if math.isfinite(d) else math.nan))
        assert np.array_equal(rows, expected, equal_nan=True)
        assert math.isnan(rows[7 + 1][2])  # (t, r) = (-1, -1)


def test_more_rounds_shrink_the_step():
    a = optimize_weights(VAC, 3.0, 3.0, WeightSearchSpec(rounds=2))
    b = optimize_weights(VAC, 3.0, 3.0, WeightSearchSpec(rounds=4))
    assert b.step < a.step
    assert b.value <= a.value + 1e-15


def test_port1_bright_input_prefers_equal_idler_weights():
    spec = WeightSearchSpec(fixed_zero=1)
    res = optimize_weights(InputState.coherent(1, 0.5), 5.0, 5.0, spec)
    # r/t ratio of the two idler weights approaches one at high gain
    assert abs(res.point[0] - 1.0) <= 0.05
    assert res.value < 1e-3


def test_no_gain_raises_all_divergent():
    with pytest.raises(AllDivergentError):
        optimize_weights(VAC, 0.0, 0.0)


def test_phase_surface_minimum_at_origin():
    rows = phase_surface(3.0, 3.0, points=21)
    assert len(rows) == 21 * 21
    best = min(rows, key=lambda r: r[2])
    assert abs(best[0]) < 1e-12 and abs(best[1]) < 1e-12


def test_weight_surface_valley_is_degenerate():
    rows = weight_surface(VAC, 3.0, 3.0, bounds=(-1.0, 0.0), points=11)
    vals = {}
    for t, r, d in rows:
        if np.isfinite(d):
            vals[(round(t, 6), round(r, 6))] = d
    # points sharing the diagonal share the invariant, hence the value
    assert np.isclose(vals[(-0.3, -0.3)], vals[(-0.5, -0.5)], rtol=1e-9)


def test_scaling_curve_diagonal_slope():
    rows = scaling_curve("diagonal", samples=np.linspace(2.5, 5.0, 6))
    xs = np.log([r[1] for r in rows])
    ys = np.log([r[2] for r in rows])
    slope = np.polyfit(xs, ys, 1)[0]
    assert -1.15 < slope < -0.85
    for r in rows:
        assert np.isclose(r[-1], 1.0 / r[1])


def test_scaling_curve_alpha_sweep_monotone():
    rows = scaling_curve(
        "alpha", samples=np.linspace(1.0, 8.0, 5), partner=3.0,
        weights=(0.0, 1.0, 1.0), port=1,
    )
    ns = [r[1] for r in rows]
    ds = [r[2] for r in rows]
    assert all(np.diff(ns) > 0)
    assert all(np.diff(ds) < 0)


def test_scaling_curve_completes_through_weak_input():
    # a weak beam in a weighted port: every point diverges, none aborts
    samples = np.round(np.arange(2.8, 3.75, 0.1), 1)
    rows = scaling_curve("diagonal", samples, weights=(1.0, 1.0, 0.0), port=2,
                         amplitude=0.01)
    assert [r[0] for r in rows] == list(samples)
    assert all(math.isinf(r[2]) for r in rows)


def test_optimal_ratio_surface_port1_corner():
    rows = optimal_ratio_surface(1, [5.0], [0.5])
    (b2, al, ratio), = rows
    assert (b2, al) == (5.0, 0.5)
    assert abs(ratio - 1.0) <= 0.05


def test_optimal_ratio_surface_vacuum_port3():
    # vacuum with the probe-plus-first-idler family: the degeneracy line
    # pins the optimal second weight to zero
    rows = optimal_ratio_surface(3, [5.0], [0.0])
    assert abs(rows[0][2]) <= 0.05
