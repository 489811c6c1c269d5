"""Command-line front end: figure tables, verification runs, CSV/summary output.

Subcommands
    lie-verify    device-transform and algebra checks, PASS/FAIL per property
    sensitivity   zero-phase sensitivity of one configuration
    optimize      optimal detection weights
    figure N      data table behind figure N (3..8) as fig<N>.csv
    oracle-check  truncated-Fock vs Gaussian agreement suite

One table maps each subcommand to its defaults and its handler.
Parameters resolve in three layers: built-in defaults, then a flat
key = value config file (--config, '#' comments), then repeated
--set key=value overrides.  Unknown keys are rejected.  A handler prints
its result lines, writes any CSV and returns its exit code and summary
entries; main alone writes summary.txt (flat key = value: the command,
every parameter, then those entries).  CSV numbers carry 17 significant
digits with ',' delimiters and LF line endings; a timestamp comment is
emitted unless --no-timestamp is given.  Figures 5 and 8 fit log-log
slopes of dphi against n_total; a slope reads nan unless its finite
positive points hold at least two distinct n_total values.

Exit codes: 0 success, 1 check failure, 2 usage/config error,
3 engine guard (truncation leakage, non-convergent or fully divergent
evaluations).
"""

import argparse
import math
import os
import sys

import numpy as np

from .gaussian import InputState
from .interferometer import InterferometerConfig
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


class GuardError(Exception):
    """An engine guard tripped in a module the handler loads itself."""


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
    # floats keep 17 significant digits; nan and +-inf format as such
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _write_csv(outdir, name, command, params, header, rows, timestamp):
    path = os.path.join(outdir, name)
    lines = [f"# command: {command}"]
    for k in sorted(params):
        lines.append(f"# {k} = {_fmt(params[k])}")
    if timestamp:
        from datetime import datetime, timezone
        lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(float(x)) for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _state_from(params):
    if params["port"] == 0:
        return InputState.vacuum()
    return InputState.coherent(params["port"], params["alpha_abs"])


def _print_lines(entries, width):
    for k, v in entries.items():
        print(f"{k:<{width}} = {_fmt(v)}")


def _report(checks):
    """Print a PASS or FAIL line per (label, ok) check; return how many failed."""
    failed = 0
    for label, ok in checks:
        print(("PASS " if ok else "FAIL ") + label)
        failed += not ok
    return failed


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each takes the resolved parameters and the parsed
# command line and returns (exit code, summary entries); main writes
# summary.txt from the entries, after the command name and the parameters.
# ---------------------------------------------------------------------------

_LIE_DEFAULTS = {"trials": 10000, "seed": 7, "tol": 1e-9}
_LIE_STACK = 500


def _device_configs(rng, n):
    """n random devices, one InterferometerConfig stack split by columns from
    one (n, 11) uniform draw, so no device depends on the stack size: gains
    in [0, 3.2), pump phases in [0, 2 pi), internal phases in [-pi, pi)."""
    u = rng.uniform(size=(n, 11)).T
    return InterferometerConfig(*(3.2 * u[:4]), *(2.0 * np.pi * u[4:8]),
                                *(np.pi * (2.0 * u[8:] - 1.0)))


def cmd_lie_verify(params, args):
    from . import lie

    checks = []

    # stacks of at most _LIE_STACK devices keep the sweep's memory flat
    rng = np.random.default_rng(params["seed"])
    worst = np.zeros(2)
    for start in range(0, params["trials"], _LIE_STACK):
        cfg = _device_configs(rng, min(_LIE_STACK, params["trials"] - start))
        S = cfg.total_matrix()
        scale = np.max(np.abs(S), axis=(-2, -1))
        det_dev = np.abs(lie.determinant(S) - np.exp(1j * (cfg.phi1 - cfg.phi2 - cfg.phi3)))
        worst = np.maximum(worst, [np.max(lie.membership_defect(S) / scale ** 2),
                                   np.max(det_dev / scale ** 3)])
    devices = f"{params['trials']} device transforms"
    checks.append((f"membership of {devices} (worst defect {worst[0]:.2e} of max|S_ij|^2)",
                   worst[0] <= params["tol"]))
    checks.append((f"det = exp(i(phi1 - phi2 - phi3)) on {devices} "
                   f"(worst {worst[1]:.2e} of max|S_ij|^3)", worst[1] <= params["tol"]))

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

    failed = _report(checks)
    status = "FAIL" if failed else "PASS"
    print(f"lie-verify: {status} ({len(checks)} checks, {failed} failed)")
    return int(failed > 0), {"checks": len(checks), "failed": failed, "status": status}


_SENS_DEFAULTS = {
    "beta1": 3.0, "beta2": 3.0,
    "w1": 1.0, "w2": 0.0, "w3": 1.0,
    "port": 0, "alpha_abs": 0.0, "phase_index": 1,
}


def cmd_sensitivity(params, args):
    w = (params["w1"], params["w2"], params["w3"])
    if all(x == 0.0 for x in w):
        raise UsageError("weights must not all be zero")
    state = _state_from(params)
    b1, b2 = params["beta1"], params["beta2"]
    res = zero_phase_limit(state, b1, b2, w, phase_index=params["phase_index"])
    summary = {"status": "DIVERGENT" if res.is_divergent else "OK",
               "delta_phi": res.delta_phi, "orders": res.orders,
               "n_total": n_total((b1, b2), state)}
    _print_lines(summary, 13)
    if params["port"] == 0:
        # closed-form reference points for the vacuum balanced cascade
        closed = {"bright_pair_closed_form": float(closed_form_limit(b1, b2)),
                  "high_gain_asymptote": float(asymptote_high_gain(b1, b2))}
        if b1 == b2 and b1 > 0:
            closed["two_mode_benchmark"] = float(su11_benchmark(b1))
        _print_lines(closed, 23)
        summary.update(closed)
    return 0, summary


_OPT_DEFAULTS = {
    "beta1": 3.0, "beta2": 3.0,
    "port": 0, "alpha_abs": 0.0, "phase_index": 1,
    "fixed_zero": 0,
}


def cmd_optimize(params, args):
    state = _state_from(params)
    res = optimize_weights(state, params["beta1"], params["beta2"],
                           params["phase_index"],
                           fixed_zero=params["fixed_zero"] or None)
    head = {"point": ", ".join(_fmt(c) for c in res.point.tolist()),
            "value": res.value}
    # with one free weight there is no ratio, so no point line
    if not res.point.size:
        del head["point"]
    tail = {"evaluations": res.evaluations, "limit_status": res.limit.status}
    weights = res.weights.tolist()
    _print_lines({**head, "weights": ", ".join(_fmt(c) for c in weights), **tail}, 12)
    return 0, {**head, **dict(zip(("w1", "w2", "w3"), weights)), **tail}


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


def _loglog_slope(rows, column):
    """Fitted slope of log rows[:, column] against log n_total (column 1)
    over the finite positive points; nan unless they hold two n_total values."""
    xs, ys = np.array(rows, dtype=float)[:, [1, column]].T
    keep = np.isfinite(xs) & np.isfinite(ys) & (xs > 0) & (ys > 0)
    if len(set(xs[keep].tolist())) < 2:
        return math.nan
    return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])


def cmd_figure(params, args):
    n = args.n
    summary = {}

    if n == 3:
        rows = phase_surface(
            params["beta1"], params["beta2"],
            weights=(params["w1"], params["w2"], params["w3"]),
            phi1=params["phi1"], phi_lo=params["phi_lo"],
            phi_hi=params["phi_hi"], points=params["points"],
        )
        header = ("phi2", "phi3", "dphi1")
        # a table with no finite cell (nan or inf) has no minimum: minima read nan
        dphi = np.array([r[2] for r in rows])
        best = rows[int(np.nanargmin(dphi))] if np.isfinite(dphi).any() else (math.nan,) * 3
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
        summary.update(slope_dphi1=_loglog_slope(rows, 2),
                       slope_dphi3=_loglog_slope(rows, 3))
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
    else:
        port, w, sweep, fixed, lo_d, hi_d = _FIG8_PANELS[params["panel"]]
        lo = params["lo"] if not math.isnan(params["lo"]) else lo_d
        hi = params["hi"] if not math.isnan(params["hi"]) else hi_d
        # a diagonal sweep reads the fixed value as |alpha|, an alpha sweep
        # as both gains; each ignores the other keyword
        rows = scaling_curve(sweep, np.linspace(lo, hi, params["points"]),
                             partner=fixed, weights=w, port=port, amplitude=fixed)
        header = ("sweep_param", "n_total", "dphi1", "heisenberg")
        summary["slope_dphi1"] = _loglog_slope(rows, 2)

    path = _write_csv(args.out, f"fig{n}.csv", f"figure {n}", params, header,
                      rows, not args.no_timestamp)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0, {**summary, "rows": len(rows), "csv": os.path.basename(path)}


_ORACLE_DEFAULTS = {
    "trials": 50, "cutoff": 14, "beta_max": 0.5, "alpha_max": 0.7,
    "seed": 123, "tol": 1e-6, "guard": 1e-8,
}


def cmd_oracle_check(params, args):
    from . import fock_oracle

    try:
        worst = fock_oracle.compare_with_gaussian(
            trials=params["trials"], cutoff=params["cutoff"],
            beta_max=params["beta_max"], alpha_max=params["alpha_max"],
            seed=params["seed"], guard=params["guard"],
        )
    except fock_oracle.LeakageExceeded as e:
        raise GuardError(e) from e
    devs = {k: worst[k] for k in ("mean", "cov", "var", "deriv")}
    kvars = {i: fock_oracle.vacuum_k_variance(i, params["cutoff"]) for i in (1, 2, 3, 4)}
    failed = _report((f"max |{k}| deviation = {d:.3e}", d < params["tol"])
                     for k, d in devs.items())
    print(f"worst leakage = {worst['leakage']:.3e}")
    failed += _report((f"vacuum K{i} variance = {_fmt(v)}", abs(v - 0.25) <= 1e-9)
                      for i, v in kvars.items())
    status = "FAIL" if failed else "PASS"
    print(f"oracle-check: {status}")
    return int(failed > 0), {"status": status,
                             **{f"dev_{k}": d for k, d in devs.items()},
                             "leakage": worst["leakage"],
                             **{f"k{i}_var": v for i, v in kvars.items()}}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# subcommand: (defaults, handler); figure's defaults are keyed by N.  The
# table holds only this module's handlers, which look the library functions
# up at call time; lie and fock_oracle are imported by the handlers that
# use them, so the other subcommands never load them.
_COMMANDS = {
    "lie-verify": (_LIE_DEFAULTS, cmd_lie_verify),
    "sensitivity": (_SENS_DEFAULTS, cmd_sensitivity),
    "optimize": (_OPT_DEFAULTS, cmd_optimize),
    "figure": (_FIG_DEFAULTS, cmd_figure),
    "oracle-check": (_ORACLE_DEFAULTS, cmd_oracle_check),
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="su12sim",
        description="Three-mode amplifying interferometer: sensitivity tables "
                    "and verification checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
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
    defaults, handler = _COMMANDS[args.command]
    command = args.command
    if command == "figure":
        defaults, command = defaults[args.n], f"figure {args.n}"
    try:
        os.makedirs(args.out, exist_ok=True)
        params = _resolve_params(defaults, args.config, args.set)
        rc, results = handler(params, args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (GuardError, NonConvergentLimitError, AllDivergentError) as e:
        print(f"guard: {e}", file=sys.stderr)
        return 3
    # the one summary.txt writer: the command, every parameter, the results
    with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        for k, v in {"command": command, **params, **results}.items():
            fh.write(f"{k} = {_fmt(v)}\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
