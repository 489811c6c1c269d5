"""Command-line front end: figure tables, verification runs, CSV/summary output.

Subcommands
    lie-verify    group/algebra property suite, PASS/FAIL per property
    sensitivity   zero-phase sensitivity of one configuration
    optimize      optimal detection weights
    figure N      data table behind figure N (3..8) as fig<N>.csv
    oracle-check  truncated-Fock vs Gaussian agreement suite

Parameters resolve in three layers: built-in defaults, then a flat
key = value config file (--config, '#' comments), then repeated
--set key=value overrides.  Unknown keys are rejected.  Every run
writes summary.txt (flat key = value) next to any CSV output.  CSV
numbers carry 17 significant digits with ',' delimiters and LF line
endings; a timestamp comment is emitted unless --no-timestamp is given.

Exit codes: 0 success, 1 check failure, 2 usage/config error,
3 engine guard (truncation leakage, non-convergent or fully divergent
evaluations).
"""

import argparse
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import lie
from .fock_oracle import LeakageExceeded, compare_with_gaussian, vacuum_k_variance
from .gaussian import InputState
from .optimizer import (
    AllDivergentError,
    optimal_ratio_surface,
    optimize_weights,
    phase_surface,
    scaling_curve,
    weight_surface,
)
from .sensitivity import (
    NO_SIGNAL_RTOL,
    NonConvergentLimitError,
    asymptote_high_gain,
    closed_form_limit,
    n_total,
    su11_benchmark,
    zero_phase_limit,
)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Parameter resolution and output plumbing.
# ---------------------------------------------------------------------------

def _parse_config_file(path):
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{ln}: expected 'key = value'")
            k, v = line.split("=", 1)
            raw[k.strip()] = v.strip()
    return raw


# ranges of the integer parameters, checked in every subcommand that has them
_RANGES = {"trials": (1, math.inf), "port": (0, 3), "phase_index": (1, 3),
           "fixed_zero": (0, 3), "points": (1, math.inf), "cutoff": (2, math.inf),
           "beta2_points": (1, math.inf), "alpha_points": (1, math.inf)}
# allowed values of the choice-valued string parameters, checked likewise
_CHOICES = {"sweep": ("fix_beta1", "fix_beta2", "diagonal"), "panel": ("a", "b", "c", "d")}


def _resolve_params(defaults, config_path, sets):
    raw = {}
    if config_path:
        raw.update(_parse_config_file(config_path))
    for item in sets or []:
        if "=" not in item:
            raise UsageError(f"--set needs key=value, got {item!r}")
        k, v = item.split("=", 1)
        raw[k.strip()] = v.strip()
    params = dict(defaults)
    for k, v in raw.items():
        if k not in defaults:
            raise UsageError(f"unknown parameter {k!r} (known: {', '.join(sorted(defaults))})")
        d = defaults[k]
        try:
            if isinstance(d, int) and not isinstance(d, bool):
                params[k] = int(v)
            elif isinstance(d, float):
                params[k] = float(v)
                if not math.isfinite(params[k]):
                    raise UsageError(f"parameter {k!r} must be finite, got {v!r}")
            else:
                params[k] = v
        except ValueError:
            raise UsageError(f"parameter {k!r}: cannot parse {v!r}")
    for k, (lo, hi) in _RANGES.items():
        if k in params and not lo <= params[k] <= hi:
            raise UsageError(f"{k} = {params[k]} is outside [{lo}, {hi}]")
    for k, choices in _CHOICES.items():
        if k in params and params[k] not in choices:
            raise UsageError(f"{k} must be one of {', '.join(choices)}; got {params[k]!r}")
    return params


def _fmt(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


def _write_csv(outdir, name, command, params, header, rows, timestamp):
    path = os.path.join(outdir, name)
    lines = [f"# command: {command}"]
    for k in sorted(params):
        lines.append(f"# {k} = {_fmt(params[k])}")
    if timestamp:
        lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(float(x)) for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_summary(outdir, entries):
    path = os.path.join(outdir, "summary.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for k, v in entries.items():
            fh.write(f"{k} = {_fmt(v)}\n")
    return path


def _state_from(params):
    port = params.get("port", 0)
    if port == 0:
        return InputState.vacuum()
    return InputState.coherent(port, params.get("alpha_abs", 0.0))


# ---------------------------------------------------------------------------
# lie-verify
# ---------------------------------------------------------------------------

_LIE_DEFAULTS = {"trials": 10000, "seed": 7, "tol": 1e-9}
_LIE_STACK = 500


def cmd_lie_verify(params, outdir, timestamp):
    checks = []

    rng = np.random.default_rng(params["seed"])
    worst = 0.0
    # stacks of at most _LIE_STACK elements keep the sweep's memory flat; the
    # elements consume one stream of uniform draws in order, so they do not
    # depend on the split
    for start in range(0, params["trials"], _LIE_STACK):
        stack = lie.random_elements(rng, min(_LIE_STACK, params["trials"] - start))
        worst = max(worst, float(np.max(lie.membership_defect(stack))))
    checks.append((f"membership {params['trials']} random products "
                   f"(worst defect {worst:.2e})", worst <= params["tol"]))

    # one global sign must reconcile every tabulated bracket with the
    # commutators of the matrix generators (via K -> i g)
    sign, devs = lie.bracket_table_sign()
    for (i, j), dev in devs.items():
        checks.append((f"bracket ({i},{j}) dev {dev:.1e}", dev <= 1e-12))
    all_ok = all(dev <= 1e-12 for dev in devs.values())
    checks.append((f"single global table sign ({'+1' if sign > 0 else '-1'})", all_ok))

    dev = float(np.max(np.abs(lie.ad_matrix(1) - lie.AD_K1_REFERENCE)))
    checks.append((f"adjoint matrix of K1 vs reference (dev {dev:.1e})", dev <= 1e-12))

    worst = 0.0
    for i in range(1, 9):
        for a in (-0.9, 0.37, 1.4):
            d = np.max(np.abs(lie.group_element(i, a) - lie.exp_generator(i, a)))
            worst = max(worst, float(d))
    checks.append((f"closed-form exponentials vs expm (worst {worst:.1e})",
                   worst <= 1e-12))

    n_fail = 0
    for label, ok in checks:
        print(("PASS " if ok else "FAIL ") + label)
        n_fail += 0 if ok else 1
    status = "PASS" if n_fail == 0 else "FAIL"
    print(f"lie-verify: {status} ({len(checks)} checks, {n_fail} failed)")
    summary = {"command": "lie-verify", **params,
               "checks": len(checks), "failed": n_fail, "status": status}
    _write_summary(outdir, summary)
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

_SENS_DEFAULTS = {
    "beta1": 3.0, "beta2": 3.0,
    "w1": 1.0, "w2": 0.0, "w3": 1.0,
    "port": 0, "alpha_abs": 0.0, "phase_index": 1,
}


def cmd_sensitivity(params, outdir, timestamp):
    w = (params["w1"], params["w2"], params["w3"])
    if all(x == 0.0 for x in w):
        raise UsageError("weights must not all be zero")
    state = _state_from(params)
    b1, b2 = params["beta1"], params["beta2"]
    res = zero_phase_limit(state, b1, b2, w, phase_index=params["phase_index"])
    status = "DIVERGENT" if res.is_divergent else "OK"
    ntot = n_total((b1, b2), state)

    print(f"status        = {status}")
    print(f"delta_phi     = {_fmt(res.delta_phi)}")
    print(f"orders        = {_fmt(res.orders)}")
    print(f"n_total       = {_fmt(ntot)}")
    summary = {"command": "sensitivity", **params,
               "status": status, "delta_phi": res.delta_phi,
               "orders": res.orders, "n_total": ntot}
    if params["port"] == 0:
        # closed-form reference points for the vacuum balanced cascade
        summary["bright_pair_closed_form"] = float(closed_form_limit(b1, b2))
        summary["high_gain_asymptote"] = float(asymptote_high_gain(b1, b2))
        print(f"bright_pair_closed_form = {_fmt(summary['bright_pair_closed_form'])}")
        print(f"high_gain_asymptote     = {_fmt(summary['high_gain_asymptote'])}")
        if b1 == b2 and b1 > 0:
            summary["two_mode_benchmark"] = float(su11_benchmark(b1))
            print(f"two_mode_benchmark      = {_fmt(summary['two_mode_benchmark'])}")
    _write_summary(outdir, summary)
    return 0


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

_OPT_DEFAULTS = {
    "beta1": 3.0, "beta2": 3.0,
    "port": 0, "alpha_abs": 0.0, "phase_index": 1,
    "fixed_zero": 0,
}


def cmd_optimize(params, outdir, timestamp):
    state = _state_from(params)
    res = optimize_weights(state, params["beta1"], params["beta2"],
                           params["phase_index"],
                           fixed_zero=params["fixed_zero"] or None)
    summary = {"command": "optimize", **params}
    # with one free weight there is no ratio, so no point line
    if res.point.size:
        summary["point"] = ", ".join(_fmt(c) for c in res.point.tolist())
        print(f"point        = {summary['point']}")
    w1, w2, w3 = res.weights.tolist()
    print(f"value        = {_fmt(res.value)}")
    print(f"weights      = {_fmt(w1)}, {_fmt(w2)}, {_fmt(w3)}")
    print(f"evaluations  = {res.evaluations}")
    print(f"limit_status = {res.limit.status}")
    summary.update({"value": res.value, "w1": w1, "w2": w2, "w3": w3,
                    "evaluations": res.evaluations,
                    "limit_status": res.limit.status})
    _write_summary(outdir, summary)
    return 0


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------

_FIG_DEFAULTS = {
    3: {"beta1": 3.0, "beta2": 3.0, "phi1": 1e-3,
        "w1": 1.0, "w2": 0.0, "w3": 1.0,
        "phi_lo": -math.pi, "phi_hi": math.pi, "points": 61},
    4: {"beta1": 3.0, "beta2": 3.0, "lo": -3.0, "hi": 3.0, "points": 61},
    5: {"partner": 3.0, "lo": 2.5, "hi": 5.0, "points": 11,
        "w1": 1.0, "w2": 0.0, "w3": 1.0, "sweep": "fix_beta2"},
    6: {"beta1": "diag", "beta2_lo": 0.5, "beta2_hi": 5.0, "beta2_points": 10,
        "alpha_lo": 0.0, "alpha_hi": 10.0, "alpha_points": 11},
    7: {"beta1": "diag", "beta2_lo": 0.5, "beta2_hi": 5.0, "beta2_points": 10,
        "alpha_lo": 0.0, "alpha_hi": 10.0, "alpha_points": 11},
    8: {"panel": "a", "lo": math.nan, "hi": math.nan, "points": 10},
}

# panel: (port, weights, sweep, fixed parameter, default lo, default hi);
# diagonal sweeps hold |alpha| at the fixed value, alpha sweeps hold both
# gains there
_FIG8_PANELS = {
    "a": (1, (0.0, 1.0, 1.0), "diagonal", 5.0, 0.5, 5.0),
    "b": (1, (0.0, 1.0, 1.0), "alpha", 3.0, 0.0, 10.0),
    "c": (3, (1.0, 1.0, 0.0), "diagonal", 5.0, 0.5, 5.0),
    "d": (3, (1.0, 1.0, 0.0), "alpha", 3.0, 0.0, 10.0),
}


def _loglog_slope(xs, ys):
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys) & (xs > 0) & (ys > 0)
    if keep.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])


def cmd_figure(n, params, outdir, timestamp):
    command = f"figure {n}"
    summary = {"command": command, **params}

    if n == 3:
        if params["beta1"] == 0.0 and params["beta2"] == 0.0:
            raise UsageError("degenerate configuration: both gains zero carry no signal")
        rows = phase_surface(
            params["beta1"], params["beta2"],
            weights=(params["w1"], params["w2"], params["w3"]),
            phi1=params["phi1"], phi_lo=params["phi_lo"],
            phi_hi=params["phi_hi"], points=params["points"],
        )
        header = ("phi2", "phi3", "dphi1")
        # a table of overflowed (nan) cells has no minimum: its minima read nan
        dphi = np.array([r[2] for r in rows])
        best = (math.nan,) * 3 if np.isnan(dphi).all() else rows[int(np.nanargmin(dphi))]
        summary.update(min_phi2=best[0], min_phi3=best[1], min_dphi1=best[2])
    elif n == 4:
        rows = weight_surface(
            InputState.vacuum(), params["beta1"], params["beta2"],
            bounds=(params["lo"], params["hi"]), points=params["points"],
        )
        header = ("t_over_s", "r_over_s", "dphi1")
        # the vacuum optimum is a line of cells equal up to rounding: report
        # the first cell, row-major, within NO_SIGNAL_RTOL of the minimum
        vals = np.array([r[2] if math.isfinite(r[2]) else math.inf for r in rows])
        k = int(np.argmax(vals <= (1.0 + NO_SIGNAL_RTOL) * vals.min()))
        summary.update(argmin_t_over_s=rows[k][0], argmin_r_over_s=rows[k][1],
                       argmin_dphi1=rows[k][2])
    elif n == 5:
        samples = np.linspace(params["lo"], params["hi"], params["points"])
        rows = scaling_curve(
            params["sweep"], samples, partner=params["partner"],
            weights=(params["w1"], params["w2"], params["w3"]),
            phase_indices=(1, 3),
        )
        header = ("beta", "n_total", "dphi1", "dphi3", "heisenberg")
        summary["slope_dphi1"] = _loglog_slope([r[1] for r in rows],
                                               [r[2] for r in rows])
        summary["slope_dphi3"] = _loglog_slope([r[1] for r in rows],
                                               [r[3] for r in rows])
    elif n in (6, 7):
        port = 1 if n == 6 else 3
        b2s = np.linspace(params["beta2_lo"], params["beta2_hi"],
                          params["beta2_points"])
        als = np.linspace(params["alpha_lo"], params["alpha_hi"],
                          params["alpha_points"])
        try:
            beta1 = None if params["beta1"] == "diag" else float(params["beta1"])
        except ValueError:
            beta1 = math.nan
        if beta1 is not None and not math.isfinite(beta1):
            raise UsageError(f"beta1 must be 'diag' or a finite number, got {params['beta1']!r}")
        rows = optimal_ratio_surface(port, b2s, als, beta1=beta1)
        header = ("beta2", "alpha_abs", "opt_ratio")
        corner = [r for r in rows if r[0] == b2s[-1] and r[1] == als[0]]
        if corner:
            summary["corner_ratio"] = corner[0][2]
    elif n == 8:
        port, w, sweep, fixed, lo_d, hi_d = _FIG8_PANELS[params["panel"]]
        lo = params["lo"] if not math.isnan(params["lo"]) else lo_d
        hi = params["hi"] if not math.isnan(params["hi"]) else hi_d
        samples = np.linspace(lo, hi, params["points"])
        if sweep == "diagonal":
            rows = scaling_curve(sweep, samples, weights=w, port=port,
                                 amplitude=fixed)
        else:
            rows = scaling_curve(sweep, samples, partner=fixed, weights=w,
                                 port=port)
        header = ("sweep_param", "n_total", "dphi1", "heisenberg")
        summary["slope_dphi1"] = _loglog_slope([r[1] for r in rows],
                                               [r[2] for r in rows])
    else:
        raise UsageError(f"unknown figure {n}")

    path = _write_csv(outdir, f"fig{n}.csv", command, params, header, rows,
                      timestamp)
    summary["rows"] = len(rows)
    summary["csv"] = os.path.basename(path)
    _write_summary(outdir, summary)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

_ORACLE_DEFAULTS = {
    "trials": 50, "cutoff": 14, "beta_max": 0.5, "alpha_max": 0.7,
    "seed": 123, "tol": 1e-6, "guard": 1e-8,
}


def cmd_oracle_check(params, outdir, timestamp):
    worst = compare_with_gaussian(
        trials=params["trials"], cutoff=params["cutoff"],
        beta_max=params["beta_max"], alpha_max=params["alpha_max"],
        seed=params["seed"], guard=params["guard"],
    )
    tol = params["tol"]
    failed = []
    for key in ("mean", "cov", "var", "deriv"):
        ok = worst[key] < tol
        print(f"{'PASS' if ok else 'FAIL'} max |{key}| deviation = {worst[key]:.3e}")
        if not ok:
            failed.append(key)
    print(f"worst leakage = {worst['leakage']:.3e}")
    kvars = {i: vacuum_k_variance(i, params["cutoff"]) for i in (1, 2, 3, 4)}
    for i, v in kvars.items():
        ok = abs(v - 0.25) <= 1e-9
        print(f"{'PASS' if ok else 'FAIL'} vacuum K{i} variance = {_fmt(v)}")
        if not ok:
            failed.append(f"k{i}_var")
    status = "PASS" if not failed else "FAIL"
    print(f"oracle-check: {status}")
    summary = {"command": "oracle-check", **params, "status": status,
               **{f"dev_{k}": worst[k] for k in ("mean", "cov", "var", "deriv")},
               "leakage": worst["leakage"],
               **{f"k{i}_var": kvars[i] for i in kvars}}
    _write_summary(outdir, summary)
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="su12sim",
        description="Three-mode amplifying interferometer: sensitivity tables "
                    "and verification checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("lie-verify", "sensitivity", "optimize", "figure", "oracle-check"):
        q = sub.add_parser(name)
        if name == "figure":
            q.add_argument("n", type=int, choices=range(3, 9),
                           help="figure number (3..8)")
        q.add_argument("--config", default=None, help="flat key = value file")
        q.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        q.add_argument("--out", default=".", help="output directory")
        q.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp comment from CSV output")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        timestamp = not args.no_timestamp
        if args.command == "lie-verify":
            params = _resolve_params(_LIE_DEFAULTS, args.config, args.set)
            return cmd_lie_verify(params, args.out, timestamp)
        if args.command == "sensitivity":
            params = _resolve_params(_SENS_DEFAULTS, args.config, args.set)
            return cmd_sensitivity(params, args.out, timestamp)
        if args.command == "optimize":
            params = _resolve_params(_OPT_DEFAULTS, args.config, args.set)
            return cmd_optimize(params, args.out, timestamp)
        if args.command == "figure":
            params = _resolve_params(_FIG_DEFAULTS[args.n], args.config, args.set)
            return cmd_figure(args.n, params, args.out, timestamp)
        if args.command == "oracle-check":
            params = _resolve_params(_ORACLE_DEFAULTS, args.config, args.set)
            return cmd_oracle_check(params, args.out, timestamp)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (LeakageExceeded, NonConvergentLimitError, AllDivergentError) as e:
        print(f"guard: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
