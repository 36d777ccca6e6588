"""In-memory span tracer for the benchmark's traced runs.

Wrappers are installed on the program's public functions at the names its
callers look them up under (a function imported by name into another module
is wrapped there too), and removed again before any untraced run.  Each call
made while the tracer is active records a span: name, layer, job, parent
span, wall start and end, process CPU time, and the work the call did
(points, iterations, proposals, ...).

Spans nest on the main thread.  Calls made from a program's worker threads
(the trial pool in `ensemble.sample_spectra`, the chain pool of the CLI's
`sample-gas`) are recorded as threaded spans under the main-thread span
that was open when they started; they count as work, and `self_times`
says how their time is shared out.
"""

import contextlib
import dataclasses
import functools
import inspect
import io
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from biortho import (cli, dh_law, ensemble, equilibrium, gas_sampler, measures,
                     proof_lab, special)

LAYERS = ("special", "dh_law", "equilibrium", "measures", "ensemble",
          "gas_sampler", "proof_lab", "cli")


@dataclasses.dataclass
class Span:
    id: int
    name: str
    layer: str
    job: str
    parent: int
    start: float
    end: float = 0.0
    cpu: float = 0.0          # process CPU seconds, all threads
    threaded: bool = False
    work: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Span store; `active` is False outside the timed part of a job."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.job = ""
        self._stack = []
        self._lock = threading.Lock()
        self._main = threading.main_thread()

    def _open(self, name, layer):
        threaded = threading.current_thread() is not self._main
        parent = self._stack[-1].id if self._stack else -1
        with self._lock:
            span = Span(len(self.spans), name, layer, self.job, parent,
                        time.perf_counter(), threaded=threaded)
            self.spans.append(span)
        span.cpu = -time.process_time()
        if not threaded:
            self._stack.append(span)
        return span

    def _close(self, span):
        span.cpu += time.process_time()
        span.end = time.perf_counter()
        if not span.threaded:
            self._stack.pop()

    @contextlib.contextmanager
    def job_span(self, name):
        """Root span around one job's timed call; recording is on inside."""
        self.job, self.active = name, True
        span = self._open("job." + name, "job")
        try:
            yield span
        finally:
            self._close(span)
            self.active = False

    def call(self, name, layer, fn, work, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        span = self._open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if work is not None:
            span.work = work(args, kwargs, result)
        return result


# -- work counted per call -------------------------------------------------

def _points(a, r):
    return {"points": int(np.size(next(iter(a.values()))))}


def _method_points(a, r):
    return {"points": int(np.size(list(a.values())[1]))}


def _solve(a, r):
    return {"iterations": r.iterations, "unconverged": int(not r.converged),
            "kkt": r.kkt_residual}


def _chain(a, r):
    n = a["cfg"].n
    post = n * a["steps"]
    return {"proposals": n * (a["steps"] + a["burn_in"]), "post": post,
            "accepted": r[1].acceptance_rate * post}


def _cli_bytes(a, r):
    """Bytes the request wrote: its captured stdout (the benchmark gives each
    request a fresh buffer) plus the --out file."""
    argv = a["argv"]
    text = sys.stdout.getvalue() if isinstance(sys.stdout, io.StringIO) else ""
    n = len(text.encode())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        n += os.path.getsize(path) if os.path.exists(path) else 0
    return {"bytes": n}


# (owners, attribute, layer, work); every owner gets the same wrapper
TARGETS = (
    ((special,), "lambert_w0_real", "special", _points),
    ((special,), "lambert_w0_complex", "special", _points),
    ((special,), "lambert_w0_cut_above", "special", _points),
    ((special,), "lambert_w0_cut_above_log", "special", _points),
    ((dh_law.DHLaw,), "__init__", "dh_law", None),
    ((dh_law.DHLaw,), "cdf", "dh_law", _method_points),
    ((dh_law.DHLaw,), "quantile", "dh_law", _method_points),
    ((dh_law.DHLaw,), "moment_numeric", "dh_law", None),
    ((dh_law,), "dh_density", "dh_law", _points),
    ((measures, equilibrium), "energy_kernel", "measures", None),
    ((measures, equilibrium), "log_energy_grid", "measures", None),
    ((measures, equilibrium), "log_energy_offdiag", "measures", None),
    ((measures,), "w1_distance", "measures", None),
    ((measures, proof_lab), "bl_distance", "measures", None),
    ((equilibrium,), "minimize_I", "equilibrium", _solve),
    ((equilibrium,), "rate_I", "equilibrium", None),
    ((equilibrium,), "rate_I_empirical", "equilibrium", None),
    ((equilibrium,), "rate_J_largest", "equilibrium", None),
    ((ensemble,), "sample_spectra", "ensemble", None),
    ((ensemble,), "sample_spectrum", "ensemble", None),
    ((gas_sampler, cli), "mcmc_sample", "gas_sampler", _chain),
    ((proof_lab,), "truncated_dh", "proof_lab", None),
    ((proof_lab,), "uniform_nice", "proof_lab", None),
    ((proof_lab,), "build_quantile_grid", "proof_lab", None),
    ((proof_lab,), "check_spacing_bounds", "proof_lab", None),
    ((proof_lab,), "ratio_statistics", "proof_lab", None),
    ((proof_lab,), "energy_gap", "proof_lab", None),
    ((proof_lab,), "nice_energy", "proof_lab", None),
    ((proof_lab,), "configuration_bl_check", "proof_lab", None),
    ((cli,), "dispatch", "cli", _cli_bytes),
)


def _wrap(tracer, fn, name, layer, work):
    if work is not None:
        signature = inspect.signature(fn)

        def count(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return work(bound.arguments, result)
    else:
        count = None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, layer, fn, count, args, kwargs)
    return wrapper


@contextlib.contextmanager
def installed(tracer):
    """Wrappers on every target while inside; the originals are restored on
    exit, also when the body raises."""
    saved = []
    try:
        for owners, attr, layer, work in TARGETS:
            original = owners[0].__dict__[attr]
            wrapper = _wrap(tracer, original, f"{layer}.{attr.strip('_')}", layer, work)
            for owner in owners:
                if owner.__dict__[attr] is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the "
                                       f"function {owners[0].__name__} defines")
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- arithmetic over a finished trace --------------------------------------

def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans):
    """{span id: self time}.  A main-thread span's self time is its duration
    minus what its children cover.  Worker-thread spans of another layer
    than the main-thread span they ran under (the CLI's chain pool) are
    children too: the time they cover and no main-thread child covers goes
    to the first of them, so that parallel workers are not counted twice.
    Worker spans of the parent's own layer (the trial pool in
    `sample_spectra`) stay in the parent's self time."""
    by_id = {s.id: s for s in spans}
    children, pooled = defaultdict(list), defaultdict(list)
    for s in spans:
        if s.parent < 0:
            continue
        if not s.threaded:
            children[s.parent].append((s.start, s.end))
        elif s.layer != by_id[s.parent].layer:
            pooled[(s.parent, s.layer)].append(s)
    own = {}
    for (parent, _), group in pooled.items():
        lo, hi = by_id[parent].start, by_id[parent].end
        inside = [(max(w.start, lo), min(w.end, hi)) for w in group]
        own[group[0].id] = covered(children[parent] + inside) - covered(children[parent])
        children[parent] += inside
    own.update({s.id: s.duration - covered(children[s.id]) for s in spans if not s.threaded})
    return own


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def parent_layer(s):
        return by_id[s.parent].layer if s.parent >= 0 else ""

    def under(s, name):
        while s.parent >= 0:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    def named(name, top=False):
        return [s for s in spans if s.name == name and not s.threaded
                and not (top and parent_layer(s) == s.layer)]

    def dur(name, top=False):
        return sum(s.duration for s in named(name, top))

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own.get(s.id, 0.0) for s in spans if s.layer == layer)

    sp = [s for s in spans if s.layer == "special" and parent_layer(s) != "special"]
    m["special.calls"] = len(sp)
    m["special.points"] = sum(s.work.get("points", 0) for s in sp)

    quant = named("dh_law.quantile")
    m["dh_law.build_s"] = dur("dh_law.init")
    m["dh_law.cdf_s"] = dur("dh_law.cdf", top=True)
    m["dh_law.cdf_points"] = sum(s.work.get("points", 0) for s in named("dh_law.cdf", top=True))
    m["dh_law.quantile_s"] = sum(s.duration for s in quant)
    m["dh_law.quantile_points"] = sum(s.work.get("points", 0) for s in quant)
    lambert_in_quantile = sum(s.work.get("points", 0) for s in sp if under(s, "dh_law.quantile"))
    m["dh_law.lambert_points_per_quantile"] = (
        lambert_in_quantile / m["dh_law.quantile_points"]
        if m["dh_law.quantile_points"] else 0.0)

    solves = named("equilibrium.minimize_I")
    m["equilibrium.solves"] = len(solves)
    m["equilibrium.iterations"] = sum(s.work.get("iterations", 0) for s in solves)
    solve_s = sum(s.duration for s in solves)
    m["equilibrium.iterations_per_s"] = m["equilibrium.iterations"] / solve_s if solve_s else 0.0
    m["equilibrium.unconverged"] = sum(s.work.get("unconverged", 0) for s in solves)
    m["equilibrium.kkt_max"] = max((s.work.get("kkt", 0) for s in solves), default=0.0)
    m["equilibrium.rate_I_calls"] = (len(named("equilibrium.rate_I"))
                                     + len(named("equilibrium.rate_I_empirical")))
    m["equilibrium.rate_J_s"] = dur("equilibrium.rate_J_largest")

    m["measures.calls"] = sum(1 for s in spans if s.layer == "measures")
    m["measures.energy_kernel_s"] = dur("measures.energy_kernel")
    m["measures.w1_s"] = dur("measures.w1_distance")
    m["measures.bl_s"] = dur("measures.bl_distance")
    m["measures.offdiag_energy_s"] = dur("measures.log_energy_offdiag")

    ens_top = [s for s in spans if s.layer == "ensemble" and not s.threaded
               and parent_layer(s) != "ensemble"]
    m["ensemble.trials"] = sum(1 for s in spans if s.name == "ensemble.sample_spectrum")
    m["ensemble.cpu_s"] = sum(s.cpu for s in ens_top)
    m["ensemble.cpu_s_per_trial"] = (m["ensemble.cpu_s"] / m["ensemble.trials"]
                                     if m["ensemble.trials"] else 0.0)

    chains = [s for s in spans if s.name == "gas_sampler.mcmc_sample"]
    chain_s = sum(s.duration for s in chains)
    post = sum(s.work.get("post", 0) for s in chains)
    m["gas_sampler.chains"] = len(chains)
    m["gas_sampler.proposals"] = sum(s.work.get("proposals", 0) for s in chains)
    m["gas_sampler.proposals_per_s"] = m["gas_sampler.proposals"] / chain_s if chain_s else 0.0
    m["gas_sampler.acceptance_rate"] = (sum(s.work.get("accepted", 0) for s in chains) / post
                                        if post else 0.0)

    m["proof_lab.calls"] = sum(1 for s in spans if s.layer == "proof_lab")
    m["proof_lab.nice_energy_s"] = dur("proof_lab.nice_energy")
    m["proof_lab.quantile_grid_s"] = dur("proof_lab.build_quantile_grid")

    requests = named("cli.dispatch")
    m["cli.requests"] = len(requests)
    m["cli.bytes_out"] = sum(s.work.get("bytes", 0) for s in requests)

    jobs = [s for s in spans if s.layer == "job"]
    m["harness.self_s"] = sum(own[s.id] for s in jobs)
    m["trace.wall_s"] = sum(s.duration for s in jobs)
    m["trace.spans"] = len(spans)
    return m


def span_records(spans):
    """Spans as JSON-ready dicts, for writing out after the run."""
    return [dataclasses.asdict(s) for s in spans]
