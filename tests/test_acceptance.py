"""Acceptance gate: one check per advertised behavior, one verdict line each.

Every test prints a single `[PASS]`/`[FAIL]` line (visible with `pytest -s`)
and asserts exactly the flag behind that line, so the printed verdict and
the outcome always agree; a failing line surfaces in the assertion message.
Each check states its claim in the terms the model documents: the
bright-pair closed form describes the (1, 1, 0) detector, the vacuum
optimum is a whole line in the weight plane, and the port comparison is
made per photon.  The truncated-Fock evidence for the first two lives in
tests/test_fock_oracle.py.
"""

import time

import numpy as np

from su12sim.fock_oracle import compare_with_gaussian, vacuum_k_variance
from su12sim.gaussian import InputState, photon_statistics, propagate
from su12sim.interferometer import InterferometerConfig
from su12sim.lie import (
    AD_K1_REFERENCE,
    ad_matrix,
    bracket_table_sign,
    membership_defect,
    random_elements,
)
from su12sim.optimizer import optimize_weights, optimal_ratio_surface, scaling_curve
from su12sim.sensitivity import (
    asymptote_high_gain,
    closed_form_limit,
    mean_derivative,
    n_total,
    n_total_closed_form,
    su11_benchmark,
    vacuum_invariant,
    zero_phase_limit,
)

VAC = InputState.vacuum()


def _verdict(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    return ok, line


def test_criterion_1_group_structure():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = float(np.max(membership_defect(random_elements(rng, 10_000))))
    sign, devs = bracket_table_sign()
    worst_brk = max(devs.values())

    ad_dev = np.max(np.abs(ad_matrix(1) - AD_K1_REFERENCE))
    dt = time.time() - t0
    ok, line = _verdict(
        "group structure",
        worst < 1e-9 and worst_brk < 1e-12 and ad_dev < 1e-14 and dt < 10,
        f"1e4 membership defects <= {worst:.2e}; 28 brackets match the "
        f"table with global sign {sign:+.0f} to {worst_brk:.2e}; adjoint reference "
        f"deviation {ad_dev:.2e}; {dt:.1f}s",
    )
    assert ok, line


def test_criterion_2_closed_form_limits():
    t0 = time.time()
    # closed_form_limit is the bright-pair-sum detector, weights (1, 1, 0)
    measured = zero_phase_limit(VAC, 3.0, 3.0, (1, 1, 0)).delta_phi
    bright = closed_form_limit(3.0, 3.0)
    rel = abs(measured / bright - 1.0)
    asym = asymptote_high_gain(3.0, 3.0)
    within_asym = abs(measured / asym - 1.0)
    ratio5 = closed_form_limit(5.0, 5.0) / asymptote_high_gain(5.0, 5.0)
    second_idler = zero_phase_limit(VAC, 3.0, 3.0, (1, 0, 1)).delta_phi
    dt = time.time() - t0

    ok, line = _verdict(
        "closed-form limits",
        rel <= 1e-4 and within_asym <= 0.20 and abs(ratio5 - 1) <= 0.05 and dt < 1,
        f"(1,1,0) has the limit {measured:.12f}, {rel:.1e} from the "
        f"bright-pair form {bright:.12f} (tolerance 1e-4); the "
        f"probe+second-idler detector (1,0,1) gives {second_idler:.12f}, "
        f"{abs(second_idler / bright - 1):.2e} away, and is not what the "
        f"form describes.  Asymptote gap {within_asym:.3f} (<=0.20); "
        f"high-gain ratio {ratio5:.4f} (within 0.05); {dt:.2f}s",
    )
    assert ok, line


def test_criterion_3_total_photon_number():
    worst = 0.0
    for b1 in np.arange(0.5, 5.01, 0.5):
        for b2 in np.arange(0.5, 5.01, 0.5):
            worst = max(worst, abs(n_total((b1, b2)) - n_total_closed_form(b1, b2)))
    ok, line = _verdict(
        "total photon number",
        worst <= 1e-10,
        f"worst |measured - closed form| = {worst:.2e} over the 10x10 gain grid",
    )
    assert ok, line


def _optimal_detector(config, state):
    """Exact minimiser of dphi(w) = sqrt(w.C.w) / |w.d| at one configuration.

    The conserved difference (1, -1, -1) is a null direction of both the
    photon covariance C and the slope d on vacuum input (criterion 8), so
    it is projected out and the generalised Rayleigh quotient
    (w.d)^2 / w.C.w is maximised on the orthogonal plane.  Returns the
    optimal weights, scaled to w1 = 1.
    """
    _, cov = photon_statistics(propagate(config, state))
    slope = np.array([mean_derivative(config, state, e, 1) for e in np.eye(3)])
    plane = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])  # spans the plane w.(1,-1,-1) = 0
    w = plane @ np.linalg.solve(plane.T @ cov @ plane, plane.T @ slope)
    return w / w[0]


def test_criterion_4_optimal_weight_ratios():
    res = optimize_weights(VAC, 3.0, 3.0)
    t, r = res.point
    # the optimal detector at a small probe offset fixes the invariant of the line
    w_opt = _optimal_detector(InterferometerConfig.balanced(3.0, 3.0, 1e-3), VAC)
    c = vacuum_invariant(w_opt)
    # weights (1, t, r) share the invariant c on (3c+1) t - 2 r + 3c - 1 = 0
    normal = np.array([3.0 * c + 1.0, -2.0])
    off_line = abs(normal @ (t, r) + 3.0 * c - 1.0) / np.linalg.norm(normal)
    # zero-phase bound 1/sqrt(N(N+2)) (Yurke, McCall & Klauder, PRA 33, 4033, 1986)
    n = n_total((3.0, 3.0))
    bound = 1.0 / np.sqrt(n * (n + 2.0))
    at_target = zero_phase_limit(VAC, 3.0, 3.0, (1, 0, 1)).delta_phi
    ok, line = _verdict(
        "optimal weight ratios",
        off_line <= 1e-9
        and abs(res.value / bound - 1.0) <= 1e-12
        and at_target > res.value,
        f"optimize_weights gives (t/s, r/s) = "
        f"({t:.6f}, {r:.6f}), {off_line:.1e} (<= 1e-9) from the line of invariant "
        f"{c:.6f} carried by the exact optimum w* = ({w_opt[0]:.6f}, "
        f"{w_opt[1]:.6f}, {w_opt[2]:.6f}); zero-phase value {res.value:.15f} vs "
        f"1/sqrt(N(N+2)) = {bound:.15f} (rtol 1e-12); the ratios (0, 1), "
        f"invariant 1, give the larger {at_target:.12f}",
    )
    assert ok, line


def test_criterion_5_photon_scaling():
    # optimal vacuum sensitivity along beta1 with the partner gain at 3:
    # valley weights attain the degenerate minimum without a search
    xs, ys = [], []
    for b in np.linspace(2.5, 5.0, 11):
        lim = zero_phase_limit(VAC, b, 3.0, (1.0, -0.3, -0.3))
        xs.append(np.log(n_total((b, 3.0))))
        ys.append(np.log(lim.delta_phi))
    slope = float(np.polyfit(xs, ys, 1)[0])

    beats = all(
        closed_form_limit(b, b) < su11_benchmark(b) for b in (1.0, 2.0, 3.0, 4.0, 5.0)
    )
    ok, line = _verdict(
        "photon-number scaling",
        -1.1 < slope < -0.9 and beats,
        f"log-log slope {slope:.4f} (band [-1.1, -0.9]); beats the "
        f"two-mode benchmark 1/sinh(beta) at every matched gain >= 1: {beats}",
    )
    assert ok, line


def test_criterion_6_coherent_inputs():
    a = zero_phase_limit(InputState.coherent(1, 0.5), 3.0, 3.0, (1, 0, 1))
    clause_a = a.is_divergent

    rows = optimal_ratio_surface(1, [5.0], [0.5])
    clause_b = abs(rows[0][2] - 1.0) <= 0.05

    # the port comparison is per photon: n_total is the documented resource
    # count, and at equal amplitude the amplified probe port holds more
    grid = []
    for b in np.linspace(2.5, 5.0, 5):
        for amp in np.linspace(0.5, 5.0, 5):
            s1, s3 = InputState.coherent(1, amp), InputState.coherent(3, amp)
            d1 = zero_phase_limit(s1, b, b, (0, 1, 1)).delta_phi
            d3 = zero_phase_limit(s3, b, b, (1, 1, 0)).delta_phi
            grid.append((b, amp, d1, d3, n_total((b, b), s1) * d1, n_total((b, b), s3) * d3))
    p1s, p3s = [g[4] for g in grid], [g[5] for g in grid]
    wins = sum(p3 <= p1 for p1, p3 in zip(p1s, p3s))
    raw_wins = sum(d3 <= d1 for _, _, d1, d3, _, _ in grid)
    clause_c = wins == 25

    curve = scaling_curve(
        "diagonal", samples=np.linspace(2.5, 5.0, 11),
        weights=(1.0, 1.0, 0.0), port=3, amplitude=0.5,
    )
    xs = np.log([r[1] for r in curve])
    ys = np.log([r[2] for r in curve])
    slope = float(np.polyfit(xs, ys, 1)[0])
    clause_d = abs(slope + 1.0) <= 0.1

    b0, amp0, _, _, p1c, p3c = max(grid, key=lambda g: g[5] / g[4])
    d1e, d3e = grid[-1][2:4]  # beta = |alpha| = 5
    ok, line = _verdict(
        "coherent-input behavior",
        clause_a and clause_b and clause_c and clause_d,
        f"bright-probe zero-phase divergence: {clause_a}; optimal idler "
        f"ratio at (beta2=5, |alpha|=0.5) = {rows[0][2]:.4f}; port-3 "
        f"beats port-1 in N*dphi at matched (beta, |alpha|) on {wins}/25 "
        f"grid points (port 3 {min(p3s):.3f}-{max(p3s):.3f}, port 1 "
        f"{min(p1s):.3f}-{max(p1s):.3f}; closest at beta={b0:.2f}, "
        f"|alpha|={amp0:.2f}: {p3c:.4f} vs {p1c:.4f}); on raw dphi at "
        f"matched amplitude port 3 wins {raw_wins}/25, as the probe port "
        f"holds more photons (beta=5, |alpha|=5: {d3e:.2e} vs {d1e:.2e}).  "
        f"Port-3 slope {slope:.4f} (within 0.1 of -1)",
    )
    assert ok, line


def test_criterion_7_oracle_equivalence():
    t0 = time.time()
    worst = compare_with_gaussian()
    kdev = max(abs(vacuum_k_variance(i, 14) - 0.25) for i in (1, 2, 3, 4))
    dt = time.time() - t0
    devs_ok = all(worst[k] < 1e-6 for k in ("mean", "cov", "var", "deriv"))
    ok, line = _verdict(
        "oracle equivalence",
        devs_ok and kdev <= 1e-9 and dt < 120,
        f"50 random circuits: mean {worst['mean']:.1e}, cov {worst['cov']:.1e}, "
        f"var {worst['var']:.1e}, deriv {worst['deriv']:.1e} (all < 1e-6); "
        f"vacuum quadrature variances off 1/4 by {kdev:.1e}; {dt:.1f}s",
    )
    assert ok, line


def test_criterion_8_conservation():
    rng = np.random.default_rng(42)
    w = np.array([1.0, -1.0, -1.0])
    worst_mean, worst_var = 0.0, 0.0
    for _ in range(1000):
        b = rng.uniform(0, 2.0, 4)
        cfg = InterferometerConfig(
            beta1=b[0], beta2=b[1], beta3=b[2], beta4=b[3],
            theta1=rng.uniform(0, 7), theta2=rng.uniform(0, 7),
            theta3=rng.uniform(0, 7), theta4=rng.uniform(0, 7),
            phi1=rng.uniform(0, 7), phi2=rng.uniform(0, 7),
            phi3=rng.uniform(0, 7),
        )
        alpha = 0.7 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        mean, _ = photon_statistics(propagate(cfg, InputState(alpha=tuple(alpha))))
        worst_mean = max(worst_mean, abs(w @ mean - w @ np.abs(alpha) ** 2))
        _, vcov = photon_statistics(propagate(cfg, VAC))
        worst_var = max(worst_var, abs(w @ vcov @ w))
    ok, line = _verdict(
        "conserved difference",
        worst_mean <= 1e-9 and worst_var <= 1e-10,
        f"mean drift <= {worst_mean:.2e} over 1000 circuits; vacuum variance "
        f"of the conserved combination <= {worst_var:.2e}",
    )
    assert ok, line
