"""The benchmark's `law` pass, run in process under its tracer.

perfbench/ reads names of the package: spans.TARGETS wraps functions by
attribute name and workloads.LAW calls the law and proof-lab entry points.
This runs every `law` job with those wrappers installed and checks every
gate, so a change that deletes or rebinds a traced name, or breaks a `law`
gate, fails here and not only in a benchmark run.  It also builds the
solver configs of the `one-shot` workload.  perfbench/ is imported, never
edited.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_law_pass_traced(tmp_path):
    spans, workloads = _load("spans"), _load("workloads")
    inputs, state = workloads.law_inputs(None, tmp_path), {}
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for job in workloads.LAW:
            with tracer.job_span(job.name):
                out = job.run(inputs, state)
            passed, detail = job.check(out, inputs, state)
            assert passed, f"{job.name}: {detail}"
    names = {s.name for s in tracer.spans}
    assert {"job." + job.name for job in workloads.LAW} <= names
    assert {"dh_law.quantile", "proof_lab.truncated_dh", "measures.bl_distance"} <= names
    assert spans.layer_metrics(tracer.spans)["dh_law.quantile_points"] > 0
    # the one-shot workload's solver configs pass GasConfig its dummy n
    assert workloads.dh_config().n == workloads.id_config().n == 2
