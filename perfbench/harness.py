"""Pass loop, metrics and run record of the benchmark.

A run is one fresh process working on one workload: closed loop, one
client, jobs back to back.  A pass runs the workload's job list once; the
run repeats passes until its time budget is spent and reports each job at
its mean over the passes, scaled by the host speed that calibration probes
measure between passes.  The harness starts no threads; the program keeps
its default thread settings, which the run records but does not pin.
"""

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np       # noqa: E402
import scipy             # noqa: E402

import biortho           # noqa: E402
import spans             # noqa: E402
import workloads         # noqa: E402

OUT_DIR = ROOT / ".perfbench_run"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
CALIBRATION_REF_S = 0.75      # calibration probe seconds at the reference speed
ADDITIVE_TOLERANCE_S = 1e-3   # per job: pass-loop clock vs the spans' sum
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
THREAD_VARS = ("BIORTHO_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "GOTO_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "special.calls": ("count", "lower"),
    "special.points": ("count", "lower"),
    "special.self_s": ("s", "lower"),
    "dh_law.build_s": ("s", "lower"),
    "dh_law.cdf_s": ("s", "lower"),
    "dh_law.cdf_points": ("count", "lower"),
    "dh_law.quantile_s": ("s", "lower"),
    "dh_law.quantile_points": ("count", "lower"),
    "dh_law.self_s": ("s", "lower"),
    "dh_law.lambert_points_per_quantile": ("ratio", "lower"),
    "equilibrium.solves": ("count", "lower"),
    "equilibrium.iterations": ("count", "lower"),
    "equilibrium.iterations_per_s": ("1/s", "higher"),
    "equilibrium.unconverged": ("count", "lower"),
    "equilibrium.kkt_max": ("1", "lower"),
    "equilibrium.rate_I_calls": ("count", "lower"),
    "equilibrium.rate_J_s": ("s", "lower"),
    "equilibrium.self_s": ("s", "lower"),
    "measures.calls": ("count", "lower"),
    "measures.self_s": ("s", "lower"),
    "measures.energy_kernel_s": ("s", "lower"),
    "measures.w1_s": ("s", "lower"),
    "measures.bl_s": ("s", "lower"),
    "measures.offdiag_energy_s": ("s", "lower"),
    "ensemble.trials": ("count", "lower"),
    "ensemble.self_s": ("s", "lower"),
    "ensemble.cpu_s": ("s", "lower"),
    "ensemble.cpu_s_per_trial": ("s", "lower"),
    "gas_sampler.chains": ("count", "lower"),
    "gas_sampler.proposals": ("count", "lower"),
    "gas_sampler.proposals_per_s": ("1/s", "higher"),
    "gas_sampler.acceptance_rate": ("ratio", "higher"),
    "gas_sampler.self_s": ("s", "lower"),
    "proof_lab.calls": ("count", "lower"),
    "proof_lab.self_s": ("s", "lower"),
    "proof_lab.nice_energy_s": ("s", "lower"),
    "proof_lab.quantile_grid_s": ("s", "lower"),
    "cli.requests": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "harness.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
for _w, (_, _jobs) in workloads.WORKLOADS.items():
    for _job in _jobs:
        PER_LAYER[f"job.{_w}.{_job.name}_s"] = ("s", "lower")


@dataclass
class PassResult:
    wall_s: float
    job_s: dict
    failures: list
    details: dict
    rss_mb: float
    spans: list = field(default_factory=list)


def run_pass(jobs, inputs, tracer=None):
    """Run every job once.  A job that raises or misses its gate is a
    failure; the pass goes on.  Only the jobs' calls are timed; gates run
    with tracing off."""
    workloads.begin_pass()
    state, job_s, failures, details = {}, {}, [], {}
    for job in jobs:
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = job.run(inputs, state)
            else:
                with tracer.job_span(job.name):
                    out = job.run(inputs, state)
        except Exception as exc:          # a failing job must not stop the run
            error = f"raised {type(exc).__name__}: {exc}"
        job_s[job.name] = time.perf_counter() - t0
        if error is None:
            try:
                passed, details[job.name] = job.check(out, inputs, state)
                if not passed:
                    error = f"missed gate: {details[job.name]}"
            except Exception as exc:
                error = f"gate raised {type(exc).__name__}: {exc}"
        if error is not None:
            details[job.name] = error
            failures.append((job.name, error))
    return PassResult(sum(job_s.values()), job_s, failures, details, peak_rss_mb(),
                      tracer.spans if tracer is not None else [])


def start_on(cpu):
    """Move the calling thread to `cpu`, then give it back every CPU it may
    use.  The scheduler leaves a busy thread where it is, so what follows
    starts on `cpu`; threads the program starts get the full mask."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, CPUS)


def repeat(jobs, inputs, seconds, traced=False, min_passes=1, between=None):
    """At least `min_passes` passes back to back, then more while another
    pass as long as the last one still ends within `seconds`.  Each pass
    starts on the next CPU in turn: on a shared host one CPU can run slower
    than another for minutes, and a thread that starts on it stays there.
    `between`, if given, runs after every pass, outside the pass's timing."""
    passes = []
    t0 = time.perf_counter()
    last = 0.0
    while True:
        now = time.perf_counter()
        if len(passes) >= min_passes and (now - t0) + last > seconds:
            return passes
        start_on(CPUS[len(passes) % len(CPUS)])
        start = time.perf_counter()
        if traced:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                passes.append(run_pass(jobs, inputs, tracer))
        else:
            passes.append(run_pass(jobs, inputs))
        last = time.perf_counter() - start
        if between is not None:
            between()
            last = time.perf_counter() - start


def make_inputs(workload, seed):
    OUT_DIR.mkdir(exist_ok=True)
    make, jobs = workloads.WORKLOADS[workload]
    return make(seed, OUT_DIR), jobs


def setup_probe(workload, seed):
    """Child side of a set-up measurement: ready once imports are done and
    the inputs exist; reports the system-wide monotonic clock."""
    make_inputs(workload, seed)
    print(time.monotonic(), flush=True)


def measure_setup(script, workload, seed):
    """Seconds from spawning a fresh interpreter to its ready line."""
    argv = [sys.executable, str(script), "--setup-probe", "--workload", workload]
    if seed is not None:
        argv += ["--seed", str(seed)]
    t0 = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=True)
    return float(done.stdout.split()[-1]) - t0


def measure_host():
    """Seconds the calibration probe takes, which runs nothing of the
    program: how fast the host is right now.  One probe on each of the
    first two CPUs, at the same time: the CPUs drift apart, and the
    program's passes run on both."""
    started = []
    try:
        for cpu in CPUS[:2]:
            argv = [sys.executable, str(CALIBRATE), str(cpu)]
            started.append((time.monotonic(), subprocess.Popen(
                argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)))
        samples = []
        for t0, proc in started:
            out, _ = proc.communicate(timeout=120)
            if proc.returncode != 0:
                raise subprocess.CalledProcessError(proc.returncode, proc.args)
            samples.append(float(out.split()[-1]) - t0)
        return samples
    finally:
        for _, proc in started:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def git_state():
    """(revision, dirty) of the checkout; (None, None) when it is not a git
    work tree.  The search for a repository stops at the checkout root."""
    if not (ROOT / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True,
                                timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None, None
    return rev.stdout.strip(), bool(status.stdout.strip())


def environment(seed):
    rev, dirty = git_state()
    return {
        "git_revision": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "biortho": biortho.__version__,
        "cpu_count": os.cpu_count(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mean_wall(passes):
    """Wall seconds of the job list, each job at its mean over the passes.
    The host's speed drifts by up to 1.6x in stretches of seconds to
    minutes, per CPU.  The mean over passes spread across the run, on
    alternating CPUs, follows the run's typical speed; the fastest pass
    depends on whether the run happened to catch a fast stretch, and the
    median jumps between the slow and the fast speed when the passes are
    split between them."""
    return sum(statistics.fmean(p.job_s[name] for p in passes)
               for name in passes[0].job_s)


def median_pass(passes):
    """The pass whose wall time is the (lower) median."""
    ordered = sorted(passes, key=lambda p: p.wall_s)
    return ordered[(len(ordered) - 1) // 2]


def traced_metrics(workload, traced, untraced_wall):
    """Per-layer metrics of one traced pass, with every job metric present,
    and whether the layers' self times plus the harness residue account
    for the pass's wall time as the pass loop clocked it, independently of
    the spans (to within ADDITIVE_TOLERANCE_S per job)."""
    m = spans.layer_metrics(traced.spans)
    m["trace.overhead_ratio"] = traced.wall_s / untraced_wall - 1.0
    for w, (_, jobs) in workloads.WORKLOADS.items():
        for job in jobs:
            m[f"job.{w}.{job.name}_s"] = traced.job_s[job.name] if w == workload else 0.0
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    gap = abs(layers + m["harness.self_s"] - traced.wall_s)
    return m, gap, gap <= ADDITIVE_TOLERANCE_S * len(traced.job_s)


def run(workload, seed, seconds, trace, script):
    """One benchmark run; returns (summary line, full record)."""
    inputs, jobs = make_inputs(workload, seed)
    setup, host = [], []
    if trace:
        plain = repeat(jobs, inputs, seconds / 2.0)
        traced = repeat(jobs, inputs, seconds / 2.0, traced=True)
    else:
        # a set-up and a calibration probe before the first pass and after
        # every pass (at least three of each), spread over the run like the
        # passes
        def probe():
            setup.append(measure_setup(script, workload, seed))
            host.extend(measure_host())

        probe()
        plain = repeat(jobs, inputs, seconds, min_passes=2, between=probe)
        traced = []
    passes = plain + traced
    wall = mean_wall(plain)
    failures = [(i, name, why) for i, p in enumerate(passes) for name, why in p.failures]
    attempted = len(jobs) * len(passes)
    record = {
        "workload": workload, "seconds": seconds, "trace": trace,
        "environment": environment(seed),
        "setup_samples_s": setup,
        "host_samples_s": host,
        "pass_wall_s": [p.wall_s for p in plain],
        "pass_peak_rss_mb": [p.rss_mb for p in passes],
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "job_s": [p.job_s for p in passes],
        "gates": passes[0].details,
        "failures": failures,
        "attempted": attempted,
        "failed_ratio": len(failures) / attempted,
    }
    correct = not failures
    if trace:
        chosen = median_pass(traced)
        values, gap, additive = traced_metrics(workload, chosen, wall)
        correct = correct and additive
        record["trace_additive"] = {"gap_s": gap, "ok": additive}
        record["spans"] = spans.span_records(chosen.spans)
        units = {k: PER_LAYER[k][0] for k in PER_LAYER}
    else:
        # times at the reference host speed: the host's speed drifts by up
        # to 1.6x for minutes, and the calibration probes follow it
        scale = CALIBRATION_REF_S / statistics.median(host)
        record["host_scale"] = scale
        record["measured_s"] = {"wall_s": wall, "setup_s": statistics.median(setup)}
        # later passes only add allocator fragmentation, whose amount
        # depends on thread timing and on how many passes fit the budget
        values = {"wall_s": wall * scale, "setup_s": statistics.median(setup) * scale,
                  "peak_rss_mb": plain[0].rss_mb}
        units = END_TO_END
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    record["metrics"] = metrics
    summary = {"correct": correct, "attempted": attempted, "failed": len(failures),
               "metrics": metrics}
    return summary, record
