"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench/tests``.

The measuring tests run the real workloads at a small scale, so they
check the harness's plumbing, not the program's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
from tracer import Tracer, fold_self_times

SMALL = 0.5


class FakeClock:
    """A clock that advances by a fixed step on every reading."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class Stream:
    """Stands in for ``Event``: ``packed_spec`` calls ``packed_true``."""

    def packed_true(self, clock):
        clock()  # work inside the inner span

    def packed_spec(self, clock):
        clock()
        self.packed_true(clock)
        clock()


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def batch(stream):
        clock()
        stream.packed_spec(clock)

    original = Stream.__dict__["packed_true"]
    tracer.patch(Stream, "packed_true",
                 lambda f: tracer.span("stream.pack_s", f))
    tracer.patch(Stream, "packed_spec",
                 lambda f: tracer.span("stream.pack_s", f))
    try:
        tracer.span("runner.batch_s", batch)(Stream())
    finally:
        tracer.restore()
    # readings: batch 1..10, spec 3..9, true 5..7
    self_s = fold_self_times(tracer.dump())
    assert self_s == {"runner.batch_s": 9.0 - 6.0,
                      "stream.pack_s": (6.0 - 2.0) + 2.0}
    assert sum(self_s.values()) == 9.0  # the root's duration
    assert Stream.__dict__["packed_true"] is original


def test_nested_pack_spans_on_the_real_event():
    from repro.isa.instructions import KIND_ALU, Instruction
    from repro.workloads.generator import Event

    stream = [Instruction(4 * i, KIND_ALU) for i in range(64)]
    event = Event(0, 1, (), stream, stream, frozenset())
    tracer = Tracer()
    tracer.patch(Event, "packed_true",
                 lambda f: tracer.span("stream.pack_s", f))
    tracer.patch(Event, "packed_spec",
                 lambda f: tracer.span("stream.pack_s", f))
    try:
        event.packed_spec()
    finally:
        tracer.restore()
    assert list(tracer.parent_of) == [-1, 0]
    outer = tracer.end_of[0] - tracer.start_of[0]
    self_s = fold_self_times(tracer.dump())
    assert self_s["stream.pack_s"] == pytest.approx(outer)


def _result(**changes) -> dict:
    from repro.sim.results import SimResult

    data = SimResult(app="pixlr", config="NL", instructions=1000,
                     cycles=2500.0).to_dict()
    for key, value in changes.items():
        if "__" in key:
            outer, inner = key.split("__")
            data[outer][inner] = value
        else:
            data[key] = value
    return data


def test_injected_mismatch_raises_failed_frac():
    gate = run.Gate({7: [_result(), _result()]}, ("nl", "nl_s"))
    gate.check({"results": [_result(), _result()]}, 7)
    assert gate.failed == 0 and gate.failed_frac == 0.0
    gate.check({"results": [_result(cycles=2501.0),
                            _result(esp__hinted_events=3)]}, 7)
    assert gate.attempted == 4 and gate.failed == 2
    assert gate.failed_frac == 0.5
    assert gate.notes == ["seed 7 nl: cycles",
                          "seed 7 nl_s: esp.hinted_events"]
    assert run.end_to_end([], gate)["ok_frac"] == [0.5]


def test_error_and_timeout_count_as_failed():
    gate = run.Gate({0: [_result(), _result()]}, ("nl", "nl_s"))
    gate.check({"error": "timeout after 90s"}, 0)
    assert gate.failed == gate.attempted == 2
    assert gate.notes == ["timeout after 90s"]


def test_scrub_removes_ambient_knobs():
    ambient = {"PATH": "/bin", "REPRO_KERNEL": "object",
               "REPRO_FAULTS": "kill_worker:0.5", "REPRO_JOBS": "4",
               "REPRO_SEED": "9", "PYTHONPATH": "elsewhere"}
    env = run.scrubbed_env(ambient)
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PATH"] == "/bin"
    assert env["PYTHONPATH"] == str(run.ROOT / "src")


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def test_scrubbed_knobs_do_not_reach_the_child(out_dir, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "object")
    monkeypatch.setenv("REPRO_FAULTS", "interrupt:1.0,seed:1")
    gate, metrics, records = run.measure(
        run.WORKLOADS["cold-run"], seed=0, seconds=0, trace=False,
        scale=SMALL, labels={})
    assert gate.failed == 0
    assert all(r["kernels"] == {"baseline": "vector"} for r in records)
    assert all(r["trace_cache"] == r["result_cache"] == "cold"
               for r in records)
    assert metrics["ok_frac"]["value"] == 1.0


def test_gate_passes_on_a_held_out_seed(out_dir):
    gate, _metrics, records = run.measure(
        run.WORKLOADS["grid-cached-traces"], seed=5, seconds=0,
        trace=False, scale=SMALL, labels={})
    inputs = run.WORKLOADS["grid-cached-traces"].inputs
    assert gate.attempted == 4 * inputs and gate.failed == 0
    assert len({r["seed"] for r in records}) == inputs
    assert {r["backend"] for r in records} == {"process"}
    assert all(r["trace_cache"] == "warm" and r["result_cache"] == "cold"
               for r in records)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_pass_covers_the_wall_time(out_dir, workload):
    gate, metrics, _records = run.measure(
        run.WORKLOADS[workload], seed=0, seconds=0, trace=True,
        scale=SMALL, labels={})
    assert gate.failed == 0
    assert list(metrics) == [name for name, _unit in layers.PER_LAYER]
    assert metrics["trace.coverage"]["value"] >= 0.95
    assert (out_dir / f"layers-{workload}.json").exists()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in run.WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_normalised_time_cancels_host_speed():
    gate = run.Gate({0: [_result()]}, ("nl",))
    fast = {"wall_s": 2.0, "calib_s": 0.05, "results": [_result()],
            "setup_s": 0.3, "peak_rss_mb": 70.0}
    slow = dict(fast, wall_s=3.0, calib_s=0.075)
    samples = run.end_to_end([fast, slow], gate)
    assert samples["wall_norm_s"] == pytest.approx(
        [2.0 * run.CALIB_REF_S / 0.05] * 2)
    assert samples["minstr_per_norm_s"][0] == pytest.approx(
        samples["minstr_per_norm_s"][1])
    assert samples["setup_s"] == pytest.approx(
        [0.3 * run.CALIB_REF_S / 0.05, 0.3 * run.CALIB_REF_S / 0.075])


def test_calibration_across_cpus_reaps_its_helpers():
    import os

    import child

    assert child.calibrate(2, passes=1) > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
