"""Self-tests of the benchmark harness (about 25 s):

    python3 perfbench/selftest.py
"""

import json
import pickle
import subprocess
import sys
import unittest

import numpy as np

import harness
import spans
import workloads
from biortho import special
from spans import Span


def _span(i, parent, start, end, layer="special", threaded=False, name=None):
    return Span(i, name or f"{layer}.f{i}", layer, "job", parent, start, end,
                threaded=threaded)


class Declared(unittest.TestCase):
    def test_benchmark_json_matches_reported_metrics(self):
        bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         harness.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
                         harness.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))


class SelfTime(unittest.TestCase):
    def test_union_of_intervals(self):
        self.assertAlmostEqual(spans.covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]), 4.0)
        self.assertEqual(spans.covered([]), 0.0)

    def test_nested_trace(self):
        trace = [
            _span(0, -1, 0.0, 10.0, layer="job", name="job.x"),
            _span(1, 0, 1.0, 6.0, layer="dh_law"),
            _span(2, 1, 2.0, 3.0),
            _span(3, 1, 4.0, 5.5),
            _span(4, 0, 7.0, 9.0, layer="equilibrium"),
            _span(5, 4, 7.5, 8.5, layer="measures"),
            # worker threads: two of another layer than their main-thread
            # parent, overlapping each other and a main-thread child, one of
            # the parent's own layer
            _span(6, 1, 2.0, 5.0, layer="ensemble", threaded=True),
            _span(7, 1, 2.5, 9.5, layer="ensemble", threaded=True),
            _span(8, 4, 7.2, 7.4, layer="equilibrium", threaded=True),
        ]
        own = spans.self_times(trace)
        expected = {0: 3.0, 1: 1.0, 2: 1.0, 3: 1.5, 4: 1.0, 5: 1.0, 6: 1.5}
        self.assertEqual(set(own), set(expected))
        for i, value in expected.items():
            self.assertAlmostEqual(own[i], value)
        m = spans.layer_metrics(trace)
        self.assertAlmostEqual(m["special.self_s"], 2.5)
        self.assertAlmostEqual(m["dh_law.self_s"], 1.0)
        self.assertAlmostEqual(m["harness.self_s"], 3.0)
        self.assertAlmostEqual(m["ensemble.self_s"], 1.5)
        self.assertAlmostEqual(m["equilibrium.self_s"], 1.0)
        layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
        self.assertAlmostEqual(layers + m["harness.self_s"], m["trace.wall_s"])

    def test_additivity_against_pass_clock(self):
        trace = [_span(0, -1, 0.0, 10.0, layer="job", name="job.build"),
                 _span(1, 0, 1.0, 6.0, layer="dh_law")]
        names = [job.name for job in workloads.LAW]
        for clocked, expected in ((10.0, True), (10.5, False)):
            job_s = dict.fromkeys(names, 0.0)
            job_s["build"] = clocked
            traced = harness.PassResult(clocked, job_s, [], {}, 0.0, trace)
            m, gap, additive = harness.traced_metrics("law", traced, 5.0)
            self.assertEqual(additive, expected)
            self.assertAlmostEqual(gap, clocked - 10.0)
            self.assertAlmostEqual(m["trace.overhead_ratio"], clocked / 5.0 - 1.0)


class WallEstimate(unittest.TestCase):
    def test_each_job_at_its_mean_over_passes(self):
        passes = [harness.PassResult(0.0, {"a": a, "b": b}, [], {}, 0.0)
                  for a, b in ((1.0, 4.0), (3.0, 2.0), (2.0, 9.0))]
        self.assertAlmostEqual(harness.mean_wall(passes), 2.0 + 5.0)


class Calibration(unittest.TestCase):
    def test_probe_runs_nothing_of_the_program(self):
        code = ("import runpy, sys; "
                f"runpy.run_path({str(harness.CALIBRATE)!r}, run_name='__main__'); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'biortho'))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        self.assertEqual(done.stdout.split("\n")[-2], "[]")
        samples = harness.measure_host()
        self.assertEqual(len(samples), min(2, len(harness.CPUS)))
        self.assertTrue(all(t > 0.0 for t in samples))


class Wrappers(unittest.TestCase):
    def _current(self):
        return [owner.__dict__[attr] for owners, attr, _, _ in spans.TARGETS
                for owner in owners]

    def test_restored_after_traced_run(self):
        before = self._current()
        tracer = spans.Tracer()
        with spans.installed(tracer):
            self.assertTrue(all(a is not b for a, b in zip(self._current(), before)))
            with tracer.job_span("probe"):
                special.lambert_w0_real(np.array([0.5, 1.0, 2.0]))
        self.assertTrue(all(a is b for a, b in zip(self._current(), before)))
        names = [s.name for s in tracer.spans]
        self.assertEqual(names, ["job.probe", "special.lambert_w0_real"])
        self.assertEqual(tracer.spans[1].work, {"points": 3})

    def test_restored_when_body_raises(self):
        before = self._current()
        with self.assertRaises(KeyError):
            with spans.installed(spans.Tracer()):
                raise KeyError("boom")
        self.assertTrue(all(a is b for a, b in zip(self._current(), before)))


class Failures(unittest.TestCase):
    def test_failed_jobs_counted_and_run_continues(self):
        def boom(inp, state):
            raise RuntimeError("boom")

        ran = []
        jobs = (
            workloads.Job("raises", boom, lambda out, inp, state: (True, "")),
            workloads.Job("misses", lambda inp, state: 1.0,
                          lambda out, inp, state: (out <= 0.5, "value 1.0 (<= 0.5)")),
            workloads.Job("gate_raises", lambda inp, state: None,
                          lambda out, inp, state: (out["x"], "")),
            workloads.Job("passes", lambda inp, state: ran.append(1),
                          lambda out, inp, state: (True, "fine")),
        )
        result = harness.run_pass(jobs, {})
        self.assertEqual([name for name, _ in result.failures],
                         ["raises", "misses", "gate_raises"])
        self.assertEqual(ran, [1])
        self.assertEqual(result.details["passes"], "fine")
        self.assertEqual(set(result.job_s), {j.name for j in jobs})


class Repeatability(unittest.TestCase):
    def test_pinned_seeds_by_default(self):
        for tag, seed in workloads.PINNED.items():
            self.assertEqual(workloads.derive(None, tag), seed)
        self.assertNotEqual(workloads.derive(1, "chains"), workloads.derive(2, "chains"))

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            a, _ = harness.make_inputs(name, 3)
            b, _ = harness.make_inputs(name, 3)
            c, _ = harness.make_inputs(name, 4)
            self.assertEqual(pickle.dumps(a), pickle.dumps(b))
            self.assertNotEqual(pickle.dumps(a), pickle.dumps(c))

    def test_same_seed_same_work_counts(self):
        inputs, jobs = harness.make_inputs("one-shot", 3)
        counts = []
        for _ in range(2):
            (traced,) = harness.repeat(jobs, inputs, 0.0, traced=True)
            self.assertEqual(traced.failures, [])
            m = spans.layer_metrics(traced.spans)
            counts.append((m["equilibrium.iterations"], m["gas_sampler.proposals"],
                           m["special.points"]))
        self.assertEqual(counts[0], counts[1])
        self.assertTrue(all(c > 0 for c in counts[0]))


if __name__ == "__main__":
    unittest.main(verbosity=2)
