import itertools
import math

import numpy as np
import pytest

import mp_reference
from su12sim import sensitivity
from su12sim.gaussian import InputState
from su12sim.optimizer import (
    AllDivergentError,
    optimize_weights,
    optimal_ratio_surface,
    phase_surface,
    scaling_curve,
    weight_surface,
)
from su12sim.sensitivity import n_total, vacuum_invariant, zero_phase_limit

VAC = InputState.vacuum()


@pytest.mark.parametrize("state", [VAC, InputState.coherent(3, 2.0)],
                         ids=["vacuum", "coherent3"])
def test_exact_optimum_beats_every_weight_surface_cell(state):
    res = optimize_weights(state, 3.0, 3.0)
    rows = np.array(weight_surface(state, 3.0, 3.0))
    finite = np.isfinite(rows[:, 2])
    if any(state.alpha):
        # any port-3 weight diverges for port-3 light: only the r = 0 column is left
        assert np.array_equal(finite, rows[:, 1] == 0.0)
    else:
        assert finite.sum() > 3000
    assert np.all(res.value <= (1 + 1e-15) * rows[finite, 2])


@pytest.mark.parametrize("fixed_zero", [1, 2, 3])
def test_pinned_port_optimum_beats_dense_scan(fixed_zero):
    state = InputState.coherent(3, 2.0)
    res = optimize_weights(state, 3.0, 3.0, fixed_zero=fixed_zero)
    assert res.weights[fixed_zero - 1] == 0.0
    # one stacked call on the (2401, 3) weights; each cell is bit-identical
    # to the scalar zero_phase_limit call, which raises on a cell without a limit
    u = np.linspace(-6.0, 6.0, 2401)
    w = np.insert(np.stack([np.ones_like(u), u], axis=-1), fixed_zero - 1, 0.0, axis=-1)
    scanned, _, _ = sensitivity.require_convergent(*sensitivity.limit_from_moments(
        sensitivity.zero_phase_moments(state, 3.0, 3.0), w))
    assert np.all(res.value <= (1 + 1e-15) * scanned)


@pytest.mark.parametrize("phase_index", [1, 2, 3])
@pytest.mark.parametrize("port", [1, 2, 3])
def test_bright_port_optimum_is_finite(port, phase_index):
    """The zero-phase solve leaves the lit port out, so its limit is finite."""
    res = optimize_weights(InputState.coherent(port, 2.0), 3.0, 3.0, phase_index)
    assert res.limit.status == "ok"
    assert res.limit.orders == (2, 1)
    assert res.weights[port - 1] == 0.0
    if (port, phase_index) == (3, 1):
        # the probe-point solve with port 3 pinned had the limit 0.012073300910722399
        assert np.isclose(res.value, 0.012073300910583711, rtol=1e-12)


@pytest.mark.parametrize("betas", [(3.0, 3.0), (1.0, 2.0), (6.0, 6.0), (0.5, 0.5)],
                         ids=["3-3", "1-2", "6-6", "0.5-0.5"])
def test_vacuum_optimum_is_the_su11_type_bound(betas):
    # 1/sqrt(N(N+2)) (Yurke, McCall & Klauder, PRA 33, 4033, 1986)
    n = n_total(betas)
    res = optimize_weights(VAC, *betas)
    assert np.isclose(res.value, 1.0 / np.sqrt(n * (n + 2.0)), rtol=1e-12, atol=0.0)


def test_light_in_two_ports_is_rejected():
    # the slope then has an eps^0 term on every port: a different regime
    for alpha in ((1.0, 0.7j, 0.3 + 0.2j), (0.5, 0.0, 0.5)):
        with pytest.raises(ValueError):
            optimize_weights(InputState(alpha), 3.0, 3.0)


def test_fixed_zero_must_name_a_port():
    for bad in (0, 4):
        with pytest.raises(ValueError):
            optimize_weights(VAC, 3.0, 3.0, fixed_zero=bad)


def test_vacuum_optimum_sits_in_the_valley():
    """The vacuum optimum is degenerate along a line of weight ratios; the
    minimum-norm solve returns the representative (1, 0.5, 0.5), and the
    minimum value and its invariant are reproducible to full precision."""
    res = optimize_weights(VAC, 3.0, 3.0)
    # 60 digits give 0.016600742013807367
    assert np.isclose(res.value, 0.01660074201380737, rtol=1e-12)
    assert np.allclose(res.point, (0.5, 0.5), atol=1e-9)
    assert np.isclose(vacuum_invariant(res.weights), 1 / 3, atol=1e-9)
    assert res.limit.status == "ok"


def test_search_propagates_once_per_configuration(monkeypatch):
    """The optimal weights and their zero-phase limit come from one set of
    series moments: the closed form runs once, on the series of the cascade."""
    calls = []
    photocounts = sensitivity.photocounts

    def counting(m, s, v, mul=np.multiply):
        calls.append((np.shape(m), mul))
        return photocounts(m, s, v, mul)

    monkeypatch.setattr(sensitivity, "photocounts", counting)
    res = optimize_weights(VAC, 3.0, 3.0)
    assert res.evaluations == 1
    assert calls == [((sensitivity.SERIES_ORDER + 1, 2, 3), sensitivity._cauchy)]


def test_overflowing_gain_cell_gets_nan_weights():
    """A cell whose moments overflow is kept out of the solve: it reads nan
    and the other cell matches its own call."""
    res = optimize_weights(VAC, np.array([3.0, 1000.0]), 3.0)
    one = optimize_weights(VAC, 3.0, 3.0)
    # the batched pseudo-inverse may round differently from a single one
    assert np.allclose(res.weights[0], one.weights, rtol=1e-13, atol=1e-13)
    assert res.value[0] == pytest.approx(one.value, rel=1e-15)
    assert math.isnan(res.value[1]) and np.isnan(res.weights[1]).all()


def test_overflowing_gain_cell_has_its_own_status():
    """A cell whose moments overflow reads "overflow", not "divergent"; a
    zero-gain cell, which carries no signal, stays "divergent"."""
    res = optimize_weights(VAC, np.array([3.0, 1000.0]), 3.0)
    assert res.limit.status.tolist() == ["ok", "overflow"]
    res = optimize_weights(VAC, np.array([0.0, 3.0, 1000.0]), np.array([0.0, 3.0, 3.0]))
    assert res.limit.status.tolist() == ["divergent", "ok", "overflow"]
    assert np.isnan(res.value[[0, 2]]).all()


def test_weight_surface_matches_per_cell_sensitivity():
    axis = np.linspace(-1.5, 1.5, 7)  # contains the signal-free (1, -1, -1)
    for state in (VAC, InputState.coherent(3, 1.5)):
        rows = weight_surface(state, 2.0, 3.0, bounds=(-1.5, 1.5), points=7,
                              phase_index=2)
        expected = []
        for t in axis:
            for r in axis:
                d = sensitivity.zero_phase_limit(
                    state, 2.0, 3.0, (1.0, float(t), float(r)), 2).delta_phi
                expected.append((float(t), float(r), d if math.isfinite(d) else math.nan))
        assert np.array_equal(rows, expected, equal_nan=True)
        assert math.isnan(rows[7 + 1][2])  # (t, r) = (-1, -1)


def test_port1_bright_input_prefers_equal_idler_weights():
    res = optimize_weights(InputState.coherent(1, 0.5), 5.0, 5.0, fixed_zero=1)
    # r/t ratio of the two idler weights approaches one at high gain
    assert abs(res.point[0] - 1.0) <= 0.05
    assert res.value < 1e-3


def test_no_gain_raises_all_divergent():
    with pytest.raises(AllDivergentError):
        optimize_weights(VAC, 0.0, 0.0)
    # a stack raises only when every cell diverges
    with pytest.raises(AllDivergentError):
        optimize_weights(VAC, np.zeros(3), 0.0)
    assert np.isnan(optimize_weights(VAC, np.array([0.0, 1.0]), 0.0).value[0])


# (input, pinned port) cases: vacuum, a lit port pinned again, a lit port
# with another one pinned
SOLVE_CASES = [(VAC, None), (VAC, 3), (InputState.coherent(1, 2.0), 1),
               (InputState.coherent(3, 0.5), None), (InputState.coherent(2, 1.0 + 1.0j), 3)]


def test_optimal_weights_pivot_on_largest_magnitude():
    for (state, fixed_zero), phase_index in itertools.product(SOLVE_CASES, (1, 2, 3)):
        w = optimize_weights(state, 3.0, 2.0, phase_index, fixed_zero=fixed_zero).weights
        assert w.shape == (3,)
        assert w[np.argmax(np.abs(w))] == 1.0
        pinned = [*np.flatnonzero(state.alpha_vector), *([fixed_zero - 1] if fixed_zero else [])]
        assert all(w[k] == 0.0 for k in pinned)


@pytest.mark.parametrize("state,fixed_zero", SOLVE_CASES)
def test_gain_stacked_optimum_matches_per_configuration_calls(state, fixed_zero):
    b1, b2 = np.meshgrid([0.0, 0.8, 3.0], [0.0, 2.0, 4.5], indexing="ij")
    for phase_index in (1, 2, 3):
        res = optimize_weights(state, b1, b2, phase_index, fixed_zero=fixed_zero)
        assert res.weights.shape == (3, 3, 3) and res.evaluations == 9
        # the zero-gain cell carries no signal
        assert res.limit.status[0, 0] == "divergent"
        for idx in np.ndindex(b1.shape):
            try:
                one = optimize_weights(state, b1[idx], b2[idx], phase_index,
                                       fixed_zero=fixed_zero)
            except AllDivergentError:
                assert res.limit.status[idx] == "divergent" and math.isnan(res.value[idx])
                assert np.all(np.isnan(res.weights[idx])) and np.all(np.isnan(res.point[idx]))
                continue
            assert res.limit.status[idx] == one.limit.status == "ok"
            assert (res.limit.orders[0][idx], res.limit.orders[1][idx]) == one.limit.orders
            # the batched pseudo-inverse may round differently from a single one
            assert np.allclose(res.weights[idx], one.weights, rtol=1e-13, atol=1e-13)
            assert np.allclose(res.point[idx], one.point, rtol=1e-13, atol=1e-13)
            assert res.value[idx] == pytest.approx(one.value, rel=1e-15)


def test_phase_surface_minimum_at_origin():
    rows = phase_surface(3.0, 3.0, points=21)
    assert len(rows) == 21 * 21
    best = min(rows, key=lambda r: r[2])
    assert abs(best[0]) < 1e-12 and abs(best[1]) < 1e-12


# cells (i2, i3) of the default 61 x 61 figure 3 grid (beta = 3, phi1 = 1e-3,
# w = (1, 0, 1)) and their dphi1 from the same cascade in 60-digit mpmath
# arithmetic, on the grid's float phases and theta3 = theta4 = float(pi)
FIG3_CELLS_MPMATH = {
    (30, 30): 0.01739837823386793407565961069110042017346,
    (30, 31): 0.04972684403497934684358611754459556171781,
    (0, 0): 2000.302264007173086891894893583633654462,
    (20, 45): 0.972624662956483390983816717172764117639,
    (45, 10): 1.988457204865021225523785602376128426915,
    (59, 3): 7.634692920431407991031313287924501276661,
}


def test_phase_surface_cells_match_high_precision_values():
    axis = np.linspace(-np.pi, np.pi, 61)
    rows = phase_surface(3.0, 3.0)
    for (i2, i3), ref in FIG3_CELLS_MPMATH.items():
        phi2, phi3, dphi1 = rows[61 * i2 + i3]
        assert (phi2, phi3) == (axis[i2], axis[i3])
        assert dphi1 == pytest.approx(ref, rel=1e-13)


# cells (i2, i3) of the default figure 3 grid whose bytes moved when the
# phase-point slope became the order-1 term of the rank-one moment series,
# with the cascade taken as (S4 S3 P)(S2 S1): 2,528 of the 3,721 cells
# moved, by at most 1.6e-14 relative.  Against mp_reference.figure3_cell the
# worst cell, (37, 29), went from 3.98e-14 to 2.41e-14 and the median from
# 1.53e-16 to 1.67e-16.  Listed are that cell and 39 of the moved cells drawn
# with np.random.default_rng(31).
FIG3_MOVED_CELLS = [
    (0, 16), (1, 7), (2, 25), (3, 9), (3, 59), (4, 4), (4, 37), (6, 6), (6, 47), (10, 39),
    (11, 3), (12, 32), (15, 58), (17, 4), (18, 5), (18, 9), (18, 13), (21, 11), (25, 41),
    (28, 39), (29, 16), (29, 57), (33, 10), (33, 30), (34, 50), (36, 14), (37, 4), (37, 29),
    (40, 8), (40, 53), (41, 13), (42, 29), (43, 15), (43, 46), (46, 30), (50, 3), (54, 17),
    (54, 48), (59, 14), (59, 51),
]


def test_phase_surface_moved_cells_match_60_digit_cascade():
    axis = np.linspace(-np.pi, np.pi, 61)
    rows = phase_surface(3.0, 3.0)
    for i2, i3 in FIG3_MOVED_CELLS:
        phi2, phi3, dphi1 = rows[61 * i2 + i3]
        assert dphi1 == pytest.approx(mp_reference.figure3_cell(phi2, phi3), rel=1e-13)


# cells (it, ir) of the default 61 x 61 figure 4 grid (vacuum, beta = 3,
# weights (1, t, r)) and their zero-phase dphi1 from the same cascade in
# mpmath arithmetic of at least 60 digits at probe offset 1e-40; the first
# four are the cells that rounding moves most
FIG4_CELLS_MPMATH = {
    (16, 42): 7.503088306755011732526260899671211534635,
    (18, 31): 7.503088306755011732526260899671211534635,
    (15, 47): 1.867587084963455559713100718758519598857,
    (23, 3): 1.959972866390405292408149837745132323354,
    (0, 0): 0.01660074201380736696593114120663750598674,
    (45, 10): 0.01972296332753136750045752529345568482941,
}


def test_weight_surface_cells_match_high_precision_values():
    axis = np.linspace(-3.0, 3.0, 61)
    rows = weight_surface(VAC, 3.0, 3.0)
    for (it, ir), ref in FIG4_CELLS_MPMATH.items():
        t, r, dphi1 = rows[61 * it + ir]
        assert (t, r) == (axis[it], axis[ir])
        assert dphi1 == pytest.approx(ref, rel=1e-13)


# cells (beta2 index, |alpha| index) of the default figure 6 (port 1) and 7
# (port 3) grids, and sample indices of the default figure 8 panels, whose
# bytes moved when the zero-phase series came from the exact echo of the
# splitters instead of the float-pi recombiners
MOVED_RATIO_CELLS = {
    1: [(0, 3), (0, 7), (2, 5), (3, 5), (4, 10), (5, 6), (5, 10), (6, 3), (6, 7),
        (7, 9), (8, 3)],
    3: [(0, 10), (1, 3), (1, 5), (1, 6), (2, 3), (2, 6), (2, 9), (3, 7), (3, 10),
        (4, 3), (4, 5), (4, 6), (4, 7), (4, 9), (4, 10), (5, 6), (6, 3), (6, 5),
        (6, 6), (6, 7), (6, 10), (8, 3), (8, 5), (8, 7), (8, 9), (9, 7), (9, 9)],
}
MOVED_FIG8_CELLS = {"b": [3, 6, 9], "c": [3, 4, 6, 8], "d": [6]}


def test_moved_figure_cells_match_the_exact_pi_reference():
    """The moved cells agree with a 60-digit cascade at exact pump phase pi:
    the ratios of figures 6 and 7 within 2e-15, the dphi1 of figure 8
    panels b-d within 4e-16."""
    b2s, alphas = np.linspace(0.5, 5.0, 10), np.linspace(0.0, 10.0, 11)
    for port, cells in MOVED_RATIO_CELLS.items():
        ratio = np.reshape([r[2] for r in optimal_ratio_surface(port, b2s, alphas)], (10, 11))
        free = (1, 2) if port == 1 else (0, 1)
        for ib, ia in cells:
            alpha = np.zeros(3)
            alpha[port - 1] = alphas[ia]
            ref = mp_reference.optimal_ratio(alpha, b2s[ib], b2s[ib], free)
            assert abs(ratio[ib, ia] - ref) <= 2e-15 * abs(ref)
    # panel: port, weights and sweep; gain sweeps hold |alpha| = 5, alpha sweeps beta = 3
    panels = {"b": (1, (0.0, 1.0, 1.0), "alpha"), "c": (3, (1.0, 1.0, 0.0), "diagonal"),
              "d": (3, (1.0, 1.0, 0.0), "alpha")}
    for panel, (port, weights, sweep) in panels.items():
        samples = np.linspace(0.0, 10.0, 10) if sweep == "alpha" else np.linspace(0.5, 5.0, 10)
        rows = scaling_curve(sweep, samples, 3.0, weights, port, 5.0)
        for k in MOVED_FIG8_CELLS[panel]:
            alpha, beta = np.zeros(3), 3.0 if sweep == "alpha" else samples[k]
            alpha[port - 1] = samples[k] if sweep == "alpha" else 5.0
            ref = mp_reference.zero_phase_limit(alpha, beta, beta, weights)
            assert abs(rows[k][2] - ref) <= 4e-16 * ref


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


def test_scaling_curve_rows_equal_per_sample_calls():
    samples = np.array([0.0, 1.5, 3.5])
    weights = (1.0, 1.0, 0.0)
    for sweep, kw in [("fix_beta1", {}), ("fix_beta2", {"port": 3, "amplitude": 0.5}),
                      ("diagonal", {"port": 1, "amplitude": 2.0}),
                      ("alpha", {"port": 3, "partner": 2.0})]:
        rows = scaling_curve(sweep, samples, weights=weights, phase_indices=(1, 3), **kw)
        for row, x in zip(rows, samples):
            b1, b2 = {"fix_beta1": (3.0, x), "fix_beta2": (x, 3.0), "diagonal": (x, x),
                      "alpha": (2.0, 2.0)}[sweep]
            amp = x if sweep == "alpha" else kw.get("amplitude")
            state = InputState.coherent(kw["port"], amp) if "port" in kw else VAC
            n = n_total((b1, b2), state)
            dphis = [zero_phase_limit(state, b1, b2, weights, j).delta_phi for j in (1, 3)]
            assert row == (x, n, *dphis, 1.0 / n if n > 0 else math.inf)
            assert all(type(v) is float for v in row)


def test_ratio_surface_cells_match_per_cell_optimum():
    b2s, alphas = [0.0, 1.0, 4.0], [0.0, 0.5, 3.0]
    for port in (1, 3):
        rows = optimal_ratio_surface(port, b2s, alphas)
        for (b2, a, ratio), (x, y) in zip(rows, itertools.product(b2s, alphas), strict=True):
            assert (b2, a) == (x, y)
            state = InputState.coherent(port, y) if y else VAC
            try:
                want = optimize_weights(state, x, x, fixed_zero=port).point[0]
            except AllDivergentError:
                assert math.isnan(ratio)
                continue
            assert ratio == pytest.approx(want, rel=1e-13, abs=1e-13)


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
