"""One benchmark run in a fresh process: ``python3 perfbench/child.py SPEC``.

``SPEC`` is a JSON file written by ``run.py``. The child imports ``repro``
from the checkout, builds an ``ExperimentRunner`` on the spec's (empty)
cache directory and runs the workload's (app, config) pairs through
``run_many`` — the call ``repro run`` makes. It writes its timings,
results and labels as JSON to the spec's ``out`` path.

Modes (``spec["mode"]``):

* ``timed`` — the end-to-end run: setup, then one timed ``run_many``
  between two timings of a fixed calibration loop (``calib_s``, their
  mean), which tell how fast the host was around the run.
* ``traced`` — the same run with span wrappers installed on the layer
  entry points (see ``layers.install``), then one warm-cache read per key.
* ``reference`` — every config simulated directly with the object
  kernel (the readable reference model), untimed; it also resolves the
  kernel each config runs with in the timed children.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _calibration_loop() -> float:
    """One pass of a fixed pure-Python loop (integer hashing, dict
    updates, object churn and a sort, the simulator's kind of work); its
    time measures the host's current speed."""
    t0 = time.perf_counter()
    x, counts, items = 12345, {}, []
    for i in range(60_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        counts[x & 0xFFFF] = counts.get(x & 0xFFFF, 0) + i
        items.append(_Item(x, i))
    items.sort(key=lambda item: item.key)
    total = 0
    for item in items:
        total ^= item.key + item.value
    return time.perf_counter() - t0


def calibrate(width: int = 1, passes: int = 3) -> float:
    """The median time of ``passes`` calibration loops. With ``width`` > 1
    (a run on that many CPUs), the mean of that many forked processes
    looping side by side, so a busy CPU shows as it would in the run."""
    if width == 1:
        return sorted(_calibration_loop() for _ in range(passes))[passes // 2]
    helpers = []
    for _ in range(width):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                os.write(write_fd, repr(calibrate(1, passes)).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        helpers.append((pid, read_fd))
    times = []
    for pid, read_fd in helpers:
        with os.fdopen(read_fd) as pipe:
            times.append(float(pipe.read()))
        os.waitpid(pid, 0)
    return sum(times) / width


def _cache_state(cache_dir: Path) -> dict:
    traces = cache_dir / "traces"
    warm_trace = traces.is_dir() and any(traces.glob("*.espt"))
    warm_result = cache_dir.is_dir() and any(cache_dir.glob("*.json"))
    return {"trace_cache": "warm" if warm_trace else "cold",
            "result_cache": "warm" if warm_result else "cold"}


def _resolved_kernels(app: str, configs, seed: int) -> dict:
    """The hot-loop kernel each config resolves to in this environment,
    found by running one event of a tiny trace. The timed children share
    the reference child's environment, so it is found there, untimed."""
    from repro.sim.simulator import Simulator
    from repro.workloads import EventTrace, get_app

    trace = EventTrace(get_app(app), scale=0.01, seed=seed)
    kernels = {}
    for config in configs:
        sim = Simulator(trace, config)
        sim.run(max_events=1)
        kernels[config.name] = sim.kernel_used
    return kernels


class _KeptEvents:
    """An ``EventTrace`` that keeps every event it builds, so the
    reference runs of one input share a single build."""

    def __init__(self, trace) -> None:
        self._trace = trace
        self._events = [trace.event(k) for k in range(len(trace))]

    def __len__(self) -> int:
        return len(self._events)

    def event(self, index: int):
        return self._events[index]

    def __getattr__(self, name: str):
        return getattr(self._trace, name)


def run_reference(spec: dict) -> dict:
    from repro.sim import presets
    from repro.sim.simulator import Simulator
    from repro.workloads import EventTrace, get_app

    configs = [presets.by_name(name) for name in spec["configs"]]
    results = {}
    for seed in spec["seeds"]:
        trace = _KeptEvents(EventTrace(get_app(spec["app"]),
                                       scale=spec["scale"], seed=seed))
        results[seed] = []
        for config in configs:
            result = Simulator(trace, config, kernel="object").run()
            result.config = config.name
            results[seed].append(result.to_dict())
    return {"results": results,
            "kernels": _resolved_kernels(spec["app"], configs,
                                         spec["seeds"][0])}


def run_workload(spec: dict) -> dict:
    from repro.sim import presets
    from repro.sim.experiments import ExperimentRunner

    t_import = time.monotonic()
    out: dict = {"seed": spec["seed"], "import_s": t_import - T_START}
    cache_dir = Path(spec["cache_dir"])
    app, scale, seed = spec["app"], spec["scale"], spec["seed"]
    configs = [presets.by_name(name) for name in spec["configs"]]
    if spec["record_trace"]:
        # the trace a previous `repro run` left in the cache
        t0 = time.perf_counter()
        ExperimentRunner(cache_dir=cache_dir, scale=scale,
                         seed=seed).trace(app)
        out["trace_record_s"] = time.perf_counter() - t0
    runner = ExperimentRunner(cache_dir=cache_dir, scale=scale, seed=seed,
                              jobs=spec["jobs"])
    out["setup_s"] = time.monotonic() - spec["spawned_at"]
    out.update(_cache_state(cache_dir))

    calib_before = calibrate(spec["jobs"])
    tracer = None
    if spec["mode"] == "traced":
        from layers import install
        from tracer import Tracer

        tracer = Tracer()
        install(tracer)
    pairs = [(app, config) for config in configs]
    t0 = time.perf_counter()
    results = runner.run_many(pairs)
    out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.restore()
        out["spans"] = tracer.dump()
    out["calib_s"] = (calib_before + calibrate(spec["jobs"])) / 2
    out["results"] = [result.to_dict() for result in results]
    out["trace_events"] = len(runner.trace(app))
    out["trace_bytes"] = sum(path.stat().st_size for path in
                             (cache_dir / "traces").glob("*.espt"))
    out["backend"] = runner.backend_name
    out["jobs"] = spec["jobs"]
    out["retries"] = runner.retries
    out["metrics"] = runner.metrics.snapshot()

    if spec["mode"] == "traced":
        # one read per key against the now-warm result cache
        reader = ExperimentRunner(cache_dir=cache_dir, scale=scale,
                                  seed=seed, jobs=1)
        out["read_cache"] = _cache_state(cache_dir)["result_cache"]
        t0 = time.perf_counter()
        reads = [reader.run(app, config) for config in configs]
        out["store_read_s"] = time.perf_counter() - t0
        out["read_results"] = [result.to_dict() for result in reads]
    if os.environ.get("REPRO_METRICS"):
        from repro.obs.runlog import default_log_dir, iter_records

        out["runlog"] = list(iter_records(default_log_dir(cache_dir)))
    return out


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    try:
        if spec["mode"] == "reference":
            out = run_reference(spec)
        else:
            out = run_workload(spec)
        status = 0
    except Exception:  # noqa: BLE001 — reported to the harness
        out = {"error": traceback.format_exc()}
        status = 1
    Path(spec["out"]).write_text(json.dumps(out))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
