"""Benchmark of the su12sim library and CLI: four workloads, one process each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME "all" runs the four workloads one after another, each in a process of
its own, and ends with one JSON line holding every workload's metrics.

Workloads (closed loop, one client, no extra threads):

  weight-search  CLI optimize, figure 4, figure 6 and figure 7 at their
                 defaults: ~23k phase_sensitivity calls over ~225 distinct
                 configurations, so computing moments once per configuration
                 shows here.
  phase-scan     CLI figure 3, figure 5 and figure 8 panels a-d: ~3.9k
                 phase_sensitivity calls, each on a new configuration, and
                 ~3.7k CSV rows, so a batched interferometer/gaussian core
                 shows here and moments-once caching does not.
  queries        a seeded stream of independent zero_phase_limit + n_total
                 calls (port 0-3, |alpha| log-uniform on [1e-2, 10], gains on
                 [0.1, 6], weights from a fixed set): the sensitivity layer
                 one point at a time, where per-call overhead and the limit
                 algorithm show.
  verify         CLI oracle-check and lie-verify: the only workload that runs
                 fock_oracle and lie, where Gaussian-layer changes should
                 show nothing.

The table workloads run the CLI defaults, which are the paper's figures; the
seed sets their job order and lie-verify's random elements.  The queries
stream is drawn from the seed.  QUERIES_HOLDOUT_SEED is kept out of tuning,
to check that a later claim on queries holds on inputs it was not tuned on.

A run repeats passes over the workload until --seconds have passed (at least
MIN_PASSES).  With --trace 0 it prints the end-to-end metrics:

  wall_adj_s    median over passes of the time of one pass over the job list
                (table workloads) or over one block of 500 queries
  setup_s       median, over fresh interpreters, of the time until the first
                request can start: the CLI import plus the workload's own
                set-up (TruncatedFockSpace(14) for verify), each scaled by
                the time of a fresh interpreter that imports numpy alone,
                started just before it (see measure_setup)
  accurate_frac share of operations that neither failed nor missed: on
                queries, the share that gave a limit within the tolerance
                of its closed-form reference where it has one
  peak_rss_mb   peak resident memory of this process
  query_adj_p50_ms, query_adj_p75_ms
                nearest-rank latency of one request: a query, or one CLI
                subcommand on the table workloads, where each subcommand
                runs in every pass and counts once, with its median time

The "adj" timings are request times, net of the speed probes that ran inside
them, scaled by those probes (probe.py), because the host's own speed swings
by 1.7x; the raw times, the adjusted p99 and the sample counts are printed
and recorded too.
The p90 and p99 are recorded but not gated: on these hosts the tail changes
shape with the host's state (run-to-run spread 12% for the adjusted p90 of
queries, 20-60% for the p99), so the gated tail is the p75.

With --trace 1 it runs one pass untraced and the same pass with every public
library function wrapped (see tracing.py), and prints per-layer metrics:
calls, self and total time per function (raw, with the probes' own time
taken out), derived counters, the tracing overhead as the difference of the
two passes' adjusted times, the wrapper self-check and the per-call table
(percall.py).

An operation fails when it raises an undocumented error, exits non-zero,
writes the wrong output or breaks an exact identity (workloads.py); failures
are counted in `failed`.  A query misses when the zero-phase limit gives no
answer (the documented NonConvergentLimitError) or one off its closed-form
reference; the limit is an approximation whose accuracy a later change may
improve, so misses lower `accurate_frac` and are not failures.  `correct`
is false when the run cannot vouch for its own measurement: identical inputs
gave different outputs, or the wrappers missed calls.  The environment, a
fingerprint of headline results and every failure and miss reason are
printed and written with the metrics to
perfbench/out/result-<workload>-seed<n>-trace<t>.json; traced runs also write
their spans next to it.  The last line of output is the JSON result.
"""

import argparse
import array
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("weight-search", "phase-scan", "queries", "verify")
MIN_PASSES = 2
SETUP_REPEATS = 7
# Library-free set-up that the host slows down as it does the workload's:
# a fresh interpreter importing numpy, about REFERENCE_SETUP_S on a fast core.
REFERENCE_SETUP = "import numpy"
REFERENCE_SETUP_S = 0.15
QUERIES_HOLDOUT_SEED = 70_963_551
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("wall_adj_s", "s"),
    ("setup_s", "s"),
    ("accurate_frac", "fraction"),
    ("peak_rss_mb", "MB"),
    ("query_adj_p50_ms", "ms"),
    ("query_adj_p75_ms", "ms"),
)

TRACED = (
    "interferometer.fwm_matrix", "interferometer.phase_matrix",
    "interferometer.stage_matrices", "interferometer.total_matrix",
    "gaussian.from_mode_matrix", "gaussian.propagate", "gaussian.photon_statistics",
    "sensitivity.phase_sensitivity", "sensitivity.mean_derivative",
    "sensitivity.zero_phase_limit", "sensitivity.n_total",
    "optimizer.optimize_weights", "optimizer.phase_surface", "optimizer.weight_surface",
    "optimizer.scaling_curve", "optimizer.optimal_ratio_surface",
    "fock_oracle.compare_with_gaussian", "fock_oracle.run_circuit",
    "fock_oracle.apply_fwm", "lie.random_element", "lie.membership_defect",
    "cli.main",
)
PERCALL = ("total_matrix", "propagate", "photon_statistics", "mean_derivative",
           "phase_sensitivity", "zero_phase_limit", "fock_space_init", "run_circuit")
PER_LAYER = (
    *((f"{name}.{stat}", unit) for name in TRACED
      for stat, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))),
    ("sensitivity.zero_phase_limit.raised", "count"),
    ("sensitivity.zero_phase_limit.divergent", "count"),
    ("optimizer.evals_per_search", "count"),
    ("fock_oracle.space_init_s", "s"),
    ("fock_oracle.leakage_margin", "ratio"),
    ("cli.bytes_written", "bytes"),
    ("trace.wall_adj_s", "s"),
    ("trace.untraced_wall_adj_s", "s"),
    ("trace.overhead_adj_s", "s"),
    ("trace.spans", "count"),
    ("selfcheck.phase_sensitivity_calls", "count"),
    ("selfcheck.missed_calls", "count"),
    *((f"percall.{case}.{stat}", "us") for case in PERCALL
      for stat in ("median_us", "min_us")),
)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(code, repeats):
    """(scaled, raw) median time from a fresh interpreter's spawn until code has run.

    Each timed interpreter follows one that runs REFERENCE_SETUP, and its
    time is scaled by REFERENCE_SETUP_S / that interpreter's time: on these
    hosts the raw median of a run drifts by 25% between runs a few minutes
    apart, the scaled one by about 6%.  One extra pair runs first, untimed,
    so that every timed interpreter finds the bytecode cache written.
    """
    times = [_spawn_until_ready(program) for _ in range(repeats + 1)
             for program in (REFERENCE_SETUP, code)]
    reference, raw = times[2::2], times[3::2]
    return (statistics.median(REFERENCE_SETUP_S * t / r for t, r in zip(raw, reference)),
            statistics.median(raw))


def _spawn_until_ready(code):
    """Time from spawning a fresh interpreter until code has run."""
    program = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
               "sys.stdout.write('ready\\n')\nsys.stdout.flush()\n")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", program], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline().strip() == "ready"
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {err.strip()}")
    return elapsed


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    revision = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                      capture_output=True, text=True,
                                      timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            revision = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\n" + path.read_bytes())
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "platform": platform.platform(),
    }


def consistent(passes):
    """Whether passes over the same inputs produced identical outputs."""
    seen = {}
    return all(seen.setdefault(p.key, p.digest) == p.digest for p in passes)


def timed_run(workload, seconds):
    setup_s, raw_setup_s = measure_setup(workload.setup, SETUP_REPEATS)
    passes = []
    t0 = time.perf_counter()
    with probe.SpeedSampler() as sampler:
        # stop before a pass that would, at the average pace so far, end late
        while (len(passes) < MIN_PASSES or (time.perf_counter() - t0)
               * (len(passes) + 1) / len(passes) <= seconds):
            passes.append(workload.run_pass(len(passes)))
    net, adjusted, pass_net, pass_adj = array.array("d"), array.array("d"), [], []
    for p in passes:
        timed = [sampler.adjust(start, end) for start, end in p.requests]
        net.extend(n for n, _ in timed)
        adjusted.extend(a for _, a in timed)
        pass_net.append(sum(n for n, _ in timed))
        pass_adj.append(sum(a for _, a in timed))
    if workload.repeats_requests:
        # the same jobs run in every pass: each is one sample, its median time
        jobs = passes[0].attempted
        adjusted = [statistics.median(adjusted[j::jobs]) for j in range(jobs)]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    missed = sum(len(p.misses) for p in passes)
    metrics = {
        "wall_adj_s": statistics.median(pass_adj),
        "setup_s": setup_s,
        "accurate_frac": 1.0 - (failed + missed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "query_adj_p50_ms": 1e3 * nearest_rank(adjusted, 0.50),
        "query_adj_p75_ms": 1e3 * nearest_rank(adjusted, 0.75),
    }
    n = len(adjusted)
    info = {"passes": len(passes), "latency_samples": n,
            "samples_beyond_p99": n - math.ceil(0.99 * n),
            "query_adj_p90_ms": 1e3 * nearest_rank(adjusted, 0.90),
            "query_adj_p99_ms": 1e3 * nearest_rank(adjusted, 0.99),
            "raw": {"setup_s": raw_setup_s,
                    "wall_s": statistics.median(pass_net),
                    "query_p50_ms": 1e3 * nearest_rank(net, 0.50),
                    "query_p90_ms": 1e3 * nearest_rank(net, 0.90),
                    "query_p99_ms": 1e3 * nearest_rank(net, 0.99)},
            "pass_wall_adj_s": pass_adj}
    return passes, metrics, END_TO_END, [consistent(passes)], info


def _observers(notes):
    """Hooks that read the derived counters off traced calls' results.

    Fields a later version of the library may drop are read with getattr,
    so that tracing keeps working and the counter reads as absent (0).
    """

    def searched(result, fn, args, kwargs):
        if getattr(result, "evaluations", None) is not None:
            notes["evaluations"].append(result.evaluations)

    def limit(result, fn, args, kwargs):
        notes["divergent"] += not math.isfinite(result.delta_phi)

    def circuit(result, fn, args, kwargs):
        call = inspect.signature(fn).bind(*args, **kwargs)
        call.apply_defaults()
        leakage, guard = getattr(result, "leakage", 0.0), call.arguments.get("guard")
        if leakage > 0.0 and guard is not None:
            notes["margins"].append(guard / leakage)

    return {"optimizer.optimize_weights": searched,
            "sensitivity.zero_phase_limit": limit,
            "fock_oracle.run_circuit": circuit}


def self_check():
    """Trace one default weight search; count its calls a second way.

    At the seed commit the search makes 3,745 evaluations, plus one report
    and three ladder rungs: 3,749 phase_sensitivity calls, of which a patch
    of the optimizer's name alone sees 3,746.
    """
    from su12sim import optimizer
    from su12sim.gaussian import InputState
    from tracing import Tracer

    vacuum = InputState.vacuum()
    tracer = Tracer()
    with tracer.installed():
        result, entries = tracer.count_entries(
            lambda: optimizer.optimize_weights(vacuum, 3.0, 3.0))
    stats = tracer.layer_stats()
    missed = {n: entries[n] - s["calls"] for n, s in stats.items()
              if entries[n] != s["calls"]}
    calls = stats["sensitivity.phase_sensitivity"]["calls"]
    return calls, missed, {"phase_sensitivity_calls": calls,
                           "evaluations": getattr(result, "evaluations", None),
                           "missed": missed}


def traced_run(workload, spans_path):
    import percall
    from tracing import Tracer

    notes = {"evaluations": [], "divergent": 0, "margins": []}
    with probe.SpeedSampler() as sampler:
        untraced = workload.run_pass(0)
        tracer = Tracer(_observers(notes), clock=sampler.clock)
        with tracer.installed():
            traced = workload.run_pass(
                0, on_request=lambda i: setattr(tracer, "request", i))
    untraced_s, traced_s = (sum(sampler.adjust(start, end)[1] for start, end in p.requests)
                            for p in (untraced, traced))
    stats = tracer.layer_stats()
    tracer.write_spans(spans_path)
    ps_calls, missed, check_info = self_check()
    table = percall.per_call_table()

    metrics = {}
    for name in TRACED:
        s = stats.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for stat in ("calls", "self_s", "total_s"):
            metrics[f"{name}.{stat}"] = s[stat]
    zpl = stats.get("sensitivity.zero_phase_limit", {"raised": 0})
    evaluations = notes["evaluations"]
    metrics.update({
        "sensitivity.zero_phase_limit.raised": zpl["raised"],
        "sensitivity.zero_phase_limit.divergent": notes["divergent"],
        "optimizer.evals_per_search": (statistics.mean(evaluations)
                                       if evaluations else 0),
        "fock_oracle.space_init_s": stats.get("fock_oracle.TruncatedFockSpace",
                                              {"total_s": 0.0})["total_s"],
        "fock_oracle.leakage_margin": min(notes["margins"], default=0.0),
        "cli.bytes_written": traced.bytes_written,
        "trace.wall_adj_s": traced_s,
        "trace.untraced_wall_adj_s": untraced_s,
        "trace.overhead_adj_s": traced_s - untraced_s,
        "trace.spans": len(tracer),
        "selfcheck.phase_sensitivity_calls": ps_calls,
        "selfcheck.missed_calls": sum(abs(v) for v in missed.values()),
    })
    for case, (median_s, min_s) in table.items():
        metrics[f"percall.{case}.median_us"] = 1e6 * median_s
        metrics[f"percall.{case}.min_us"] = 1e6 * min_s
    info = {"self_check": check_info, "spans_file": spans_path.name,
            "layers": stats}
    checks = [consistent([untraced, traced]), not missed]
    return [untraced, traced], metrics, PER_LAYER, checks, info


def run_all(args):
    """Run every workload in a process of its own, in turn, and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        result = json.loads(out.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "su12sim" / "__init__.py").is_file():
        print(f"error: no su12sim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import su12sim
    import workloads

    if Path(su12sim.__file__).resolve().parent != SRC / "su12sim":
        print(f"error: su12sim imported from {su12sim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.make(args.workload, OUT / f"work-{args.workload}")
    workload.prepare(args.seed)
    if args.trace:
        passes, values, spec, checks, info = traced_run(
            workload, OUT / f"spans-{args.workload}.tsv")
    else:
        passes, values, spec, checks, info = timed_run(workload, args.seconds)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    misses = [m for p in passes for m in p.misses]
    fingerprint = dict(sorted({"beta3_limit_w101": workloads.beta3_limit(),
                               **passes[0].fingerprint}.items()))
    result = {
        "correct": all(checks) and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "queries_holdout_seed": QUERIES_HOLDOUT_SEED,
              "environment": env, "fingerprint": fingerprint, "info": info,
              "failures": failures, "misses": misses, **result}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                             encoding="utf-8")

    print(f"environment: {json.dumps(env)}")
    print(f"fingerprint: {json.dumps(fingerprint)}")
    print(f"failed {len(failures)} of {attempted} operations"
          + (f", first: {failures[0]}" if failures else ""))
    print(f"missed {len(misses)} of {attempted} operations"
          + (f", first: {misses[0]}" if misses else ""))
    if not args.trace:
        print(f"passes: {info['passes']}, latency samples: {info['latency_samples']}"
              f" ({info['samples_beyond_p99']} beyond p99), adjusted p90"
              f" {info['query_adj_p90_ms']:.4g} ms, p99 {info['query_adj_p99_ms']:.4g} ms,"
              f" raw: {json.dumps(info['raw'])}")
    print(f"details: {(OUT / f'result-{stem}.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
