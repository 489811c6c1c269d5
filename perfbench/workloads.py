"""The four benchmark workloads and the checks on their outputs.

A workload runs in passes.  A pass records when each request started and
ended.  A request is one CLI subcommand for the table workloads and one
zero_phase_limit + n_total query for ``queries``.  Every request is an
operation; it fails when it raises an error the library does not document,
exits non-zero, writes the wrong output, or returns a value outside the
tolerance of an exact identity.  A query misses when it gives no limit
(the documented NonConvergentLimitError) or a limit outside the tolerance
of its closed-form reference: the limit is an extrapolation whose accuracy
is measured, not assumed, so misses are counted apart from failures.  Each
pass also returns a digest of its outputs, keyed by the inputs it ran, so the
caller can check that identical inputs give identical outputs.

Library entry points are looked up on their modules at call time, so the
tracer's wrappers see the calls.  The references used by the checks are
bound once at import, before any wrapper is installed.
"""

import array
import contextlib
import hashlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from su12sim import cli, sensitivity
from su12sim.gaussian import InputState
from su12sim.sensitivity import NonConvergentLimitError

closed_form_limit = sensitivity.closed_form_limit
n_total_closed_form = sensitivity.n_total_closed_form
zero_phase_limit = sensitivity.zero_phase_limit

# Tolerances of the independent references.  The limit tolerance is the
# precision the zero-phase limit is meant to reach, so a limit outside it is
# a miss; the photon-number one is the library's own pin of n_total against
# its closed form, so a value outside it is a failure.
LIMIT_RTOL = 1e-6
N_TOTAL_RTOL = 1e-12

# Set-up a fresh interpreter needs before the first request: the CLI import
# pulls in scipy.linalg, scipy.sparse and scipy.special.
IMPORT_SETUP = "import su12sim.cli"


@dataclass
class PassResult:
    """One pass: start and end of each request, and what the outputs showed.

    Request times are kept flat in an array, start then end, so that a long
    run adds little to the memory the benchmark reports.
    """

    times: array.array
    attempted: int
    failures: list
    key: int
    digest: str
    fingerprint: dict = field(default_factory=dict)
    bytes_written: int = 0
    misses: list = field(default_factory=list)

    @property
    def requests(self):
        """(start, end) of each request."""
        return zip(self.times[::2], self.times[1::2])


@dataclass(frozen=True)
class Job:
    """One CLI subcommand run at its defaults, with what its output must show."""

    name: str
    argv: tuple
    csv: str = None
    rows: int = None
    must_pass: bool = False
    fingerprint: tuple = ()


def _read_summary(path):
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


def _csv_rows(path):
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return len(lines) - 1  # header


class TableWorkload:
    """A fixed list of CLI jobs, run in-process in a seeded order."""

    repeats_requests = True

    def __init__(self, jobs, outdir, setup=IMPORT_SETUP):
        self.jobs = jobs
        self.outdir = outdir
        self.setup = setup
        self.order = jobs
        self.extra_args = {}

    def prepare(self, seed):
        rng = np.random.default_rng(seed)
        self.order = [self.jobs[i] for i in rng.permutation(len(self.jobs))]

    def _args(self, job):
        return [*job.argv, *self.extra_args.get(job.name, ())]

    def run_pass(self, index, on_request=None):
        shutil.rmtree(self.outdir, ignore_errors=True)
        times, codes = array.array("d"), []
        for i, job in enumerate(self.order):
            if on_request is not None:
                on_request(i)
            argv = [*self._args(job), "--out", str(self.outdir / job.name),
                    "--no-timestamp"]
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
            except Exception as exc:  # a crashing job is a failed operation
                rc = f"raised {type(exc).__name__}: {exc}"
            times.extend((t0, time.perf_counter()))
            codes.append(rc)

        failures, fingerprint, written = [], {}, 0
        digest = hashlib.sha256()
        for job, rc in zip(self.order, codes):
            out = self.outdir / job.name
            problem = self._check(job, rc, out)
            if problem:
                failures.append(f"{job.name}: {problem}")
                continue
            for f in sorted(out.iterdir()):
                data = f.read_bytes()
                written += len(data)
                digest.update(f"{job.name}/{f.name}\n".encode() + data)
            summary = _read_summary(out / "summary.txt")
            for key in job.fingerprint:
                fingerprint[f"{job.name}.{key}"] = float(summary[key])
        return PassResult(times, len(self.order), failures, 0,
                          digest.hexdigest(), fingerprint, written)

    @staticmethod
    def _check(job, rc, out):
        if rc != 0:
            return f"exit {rc}"
        summary_path = out / "summary.txt"
        if not summary_path.is_file():
            return "no summary.txt"
        if job.must_pass and _read_summary(summary_path).get("status") != "PASS":
            return "status is not PASS"
        if job.csv is not None:
            csv = out / job.csv
            if not csv.is_file():
                return f"no {job.csv}"
            rows = _csv_rows(csv)
            if rows != job.rows:
                return f"{rows} CSV rows, expected {job.rows}"
        return None


class VerifyWorkload(TableWorkload):
    """oracle-check and lie-verify; lie-verify draws its elements from the seed.

    oracle-check keeps its pinned ensemble: other ensembles can legitimately
    push a draw onto the truncation wall and abort, which would be a failure
    of the input, not of the code under test.
    """

    def prepare(self, seed):
        super().prepare(seed)
        lie_seed = int(np.random.default_rng([seed, 1]).integers(2 ** 31))
        self.extra_args = {"lie-verify": ("--set", f"seed={lie_seed}")}


# Expected row counts follow from the CLI defaults: 61 x 61 grids, 11 scaling
# samples, a 10 x 11 (beta2, |alpha|) ratio grid and 10 points per figure-8 panel.
WEIGHT_SEARCH_JOBS = (
    Job("optimize", ("optimize",), fingerprint=("value", "evaluations")),
    Job("figure4", ("figure", "4"), "fig4.csv", 61 * 61,
        fingerprint=("argmin_dphi1",)),
    Job("figure6", ("figure", "6"), "fig6.csv", 10 * 11),
    Job("figure7", ("figure", "7"), "fig7.csv", 10 * 11,
        fingerprint=("corner_ratio",)),
)

PHASE_SCAN_JOBS = (
    Job("figure3", ("figure", "3"), "fig3.csv", 61 * 61,
        fingerprint=("min_dphi1",)),
    Job("figure5", ("figure", "5"), "fig5.csv", 11,
        fingerprint=("slope_dphi1",)),
    *(Job(f"figure8{p}", ("figure", "8", "--set", f"panel={p}"), "fig8.csv", 10,
          fingerprint=("slope_dphi1",)) for p in "abcd"),
)

VERIFY_JOBS = (
    Job("oracle-check", ("oracle-check",), must_pass=True,
        fingerprint=("dev_mean", "dev_cov", "dev_var", "dev_deriv", "leakage")),
    Job("lie-verify", ("lie-verify",), must_pass=True),
)

VERIFY_SETUP = (IMPORT_SETUP + "\nfrom su12sim.fock_oracle import TruncatedFockSpace"
                "\nTruncatedFockSpace(14)")


@dataclass(frozen=True)
class Query:
    port: int
    beta1: float
    beta2: float
    weights: tuple
    state: InputState


class QueryWorkload:
    """A seeded stream of independent single-point limit queries.

    Block i of the stream is the same for a given seed, whichever pass
    runs it.  Vacuum queries are checked against the closed forms: n_total
    always, and the limit when the weights are the bright-pair sum (1, 1, 0),
    the estimator the closed-form limit describes.
    """

    WEIGHTS = ((1.0, 0.0, 1.0), (1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (1.0, 0.5, 0.5))
    repeats_requests = False
    BLOCK = 500
    setup = IMPORT_SETUP

    def prepare(self, seed):
        self._rng = np.random.default_rng(seed)
        self._index, self._block = 0, self._draw()

    def _draw(self):
        rng, n = self._rng, self.BLOCK
        ports = rng.integers(0, 4, size=n)
        amps = 10.0 ** rng.uniform(-2.0, 1.0, size=n)  # |alpha| log-uniform
        betas = rng.uniform(0.1, 6.0, size=(n, 2))
        weights = rng.integers(0, len(self.WEIGHTS), size=n)
        return [
            Query(int(p), float(b[0]), float(b[1]), self.WEIGHTS[w],
                  InputState.vacuum() if p == 0
                  else InputState.coherent(int(p), float(a)))
            for p, a, b, w in zip(ports, amps, betas, weights)
        ]

    def block(self, index):
        """Block index of the stream; blocks are drawn in order, only the last kept."""
        if index < self._index:
            raise ValueError(f"block {index} is behind the stream (at {self._index})")
        while self._index < index:
            self._index, self._block = self._index + 1, self._draw()
        return self._block

    def run_pass(self, index, on_request=None):
        queries = self.block(index)
        times, outputs = array.array("d"), []
        for i, q in enumerate(queries):
            if on_request is not None:
                on_request(i)
            t0 = time.perf_counter()
            try:
                dphi = sensitivity.zero_phase_limit(
                    q.state, q.beta1, q.beta2, q.weights).delta_phi
                n = sensitivity.n_total((q.beta1, q.beta2), q.state)
                out = (dphi, n)
            except Exception as exc:  # a raising query is a failed operation
                out = exc
            times.extend((t0, time.perf_counter()))
            outputs.append(out)

        failures, misses, digest = [], [], hashlib.sha256()
        for i, (q, out) in enumerate(zip(queries, outputs)):
            failure, miss = self._check(q, out)
            if failure:
                failures.append(f"query {index}.{i}: {failure}")
            if miss:
                misses.append(f"query {index}.{i}: {miss}")
            digest.update(repr(out if not isinstance(out, Exception)
                               else type(out).__name__).encode())
        return PassResult(times, len(queries), failures, index,
                          digest.hexdigest(), misses=misses)

    @staticmethod
    def _check(q, out):
        """(failure, miss) of one query's output, each None or a reason."""
        if isinstance(out, NonConvergentLimitError):
            return None, "raised NonConvergentLimitError"
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}", None
        dphi, n = out
        if q.port != 0:
            return None, None
        if not math.isclose(n, float(n_total_closed_form(q.beta1, q.beta2)),
                            rel_tol=N_TOTAL_RTOL):
            return "n_total off the closed form", None
        if q.weights == (1.0, 1.0, 0.0):
            ref = float(closed_form_limit(q.beta1, q.beta2))
            if not math.isclose(dphi, ref, rel_tol=LIMIT_RTOL):
                return None, f"limit {dphi!r} off the closed form {ref!r}"
        return None, None


def make(name, outdir):
    """The workload called name, writing any files under outdir."""
    if name == "weight-search":
        return TableWorkload(WEIGHT_SEARCH_JOBS, outdir)
    if name == "phase-scan":
        return TableWorkload(PHASE_SCAN_JOBS, outdir)
    if name == "verify":
        return VerifyWorkload(VERIFY_JOBS, outdir, VERIFY_SETUP)
    if name == "queries":
        return QueryWorkload()
    raise ValueError(f"unknown workload {name!r}")


def beta3_limit():
    """Fingerprint: zero-phase limit at beta1 = beta2 = 3, weights (1, 0, 1)."""
    return zero_phase_limit(InputState.vacuum(), 3.0, 3.0, (1.0, 0.0, 1.0)).delta_phi
