"""Simulator throughput — how fast the trace-driven model itself runs.

Not a paper figure; tracks the cost of the reproduction's hot loop so
regressions in simulation speed are visible. Two loop implementations
exist (``repro.sim.simulator``): the object path over
``list[Instruction]`` and the packed struct-of-arrays path. The
benchmarks time both; ``test_record_throughput_snapshot`` writes the
measured speedups to ``output/BENCH_throughput.json`` for the record
(schema v8: wall seconds, Minstr/s and the selected kernel per path,
plus one grid row per execution backend — serial / process / auto with
its resolved pick — so the recorded numbers say how each fan-out
strategy actually performed on the recording machine. v6 adds the
``sampled_fidelity`` row: model-warm ``--fidelity sampled`` throughput
at scale 2 against a cold full-detail run, with the achieved
headline-metric error and the reported error bounds. v7 drops the
retired vector kernel's rows; v8 drops the deleted thread backend's row
and the ``jobs_auto`` grid row, whose decision the ``auto`` backend row
covers; v9 adds the ``trace_codec`` row: the cold cost of recording a
pixlr scale-4 trace to ``.espt`` and of decoding it back to packed
streams, with the file's bytes per instruction, the CPU count and the
commit; v10 adds the row's cold ``build_s_per_event``, the generator's
build of each event straight into packed form; v11 drops the retired
remote backend's ``remote`` and ``remote_fetch`` grid rows).

Timing discipline: every path is measured best-of-N over *fresh*
simulators sharing one pre-packed trace.

Runtime numbers are machine-dependent — the snapshot embeds the CPU
count so single-core containers (where process fan-out adds overhead
instead of parallelism) are recognisable in recorded results.
"""

import json
import os
import subprocess
import time
from pathlib import Path

from repro.isa.tracefile import dump_trace, load_trace
from repro.sim import presets
from repro.sim.experiments import ExperimentRunner, available_cpus
from repro.sim.simulator import Simulator
from repro.workloads import EventTrace, get_app

_OUTPUT_DIR = Path(__file__).parent / "output"

#: snapshot layout: 11 drops the ``remote`` and ``remote_fetch`` grid
#: rows of the retired remote backend; 10 adds the ``trace_codec`` row's
#: cold ``build_s_per_event``; 9 adds the cold ``trace_codec`` row; 8 drops the
#: thread backend row and the ``jobs_auto``
#: grid fields; 7 dropped the vector kernel's per-path fields (6 added
#: the ``sampled_fidelity`` row — model-warm ``--fidelity sampled``
#: Minstr/s at scale 2 against a cold full-detail run, with the achieved
#: headline-metric error and the reported bound; 5 added the
#: shared-nothing ``remote_fetch`` grid row; 4 the remote-backend grid
#: row; 3 the per-execution-backend grid rows; 2 per-path Minstr/s,
#: per-row kernel names and the auto-jobs grid row)
SNAPSHOT_SCHEMA_VERSION = 11


def _prewarmed_trace(scale: float = 1.0) -> EventTrace:
    """A trace with every event materialised in both forms up front (the
    packed streams the generator emits, and the object streams unpacked
    from them), so the benchmark isolates the simulator loops from
    stream generation and unpacking."""
    trace = EventTrace(get_app("pixlr"), scale=scale)
    trace._cache_capacity = len(trace) + 4  # defeat the event LRU
    for k in range(len(trace)):
        event = trace.event(k)
        event.packed_true()
        event.packed_spec()
        event.true_stream
        event.spec_stream
        trace.packed_looper_stream(k)
    return trace


def test_baseline_simulation_throughput(benchmark):
    trace = _prewarmed_trace()

    def run():
        return Simulator(trace, presets.nl(), kernel="packed").run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.instructions > 0


def test_baseline_object_path_throughput(benchmark):
    trace = _prewarmed_trace()

    def run():
        return Simulator(trace, presets.nl(), kernel="object").run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.instructions > 0


def test_esp_simulation_throughput(benchmark):
    trace = _prewarmed_trace()

    def run():
        return Simulator(trace, presets.esp_nl()).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.esp.total_pre_instructions > 0


def test_esp_object_path_throughput(benchmark):
    trace = _prewarmed_trace()

    def run():
        return Simulator(trace, presets.esp_nl(), kernel="object").run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.esp.total_pre_instructions > 0


def test_parallel_grid_throughput(benchmark, tmp_path_factory):
    """Wall-clock of a small (config × app) grid fanned over two worker
    processes. Gains require ≥2 free cores; on a single-core machine the
    fork overhead makes this slower than serial — the point of keeping
    the benchmark is that the recorded number is honest either way."""
    grid_apps = ["bing", "pixlr"]
    grid_configs = [presets.baseline(), presets.esp_nl()]

    def run():
        cache = tmp_path_factory.mktemp("parallel-grid")
        runner = ExperimentRunner(cache_dir=cache, scale=0.25, seed=0,
                                  jobs=2)
        return runner.grid(grid_configs, apps=grid_apps)

    grid = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(grid) == 2


def _commit() -> str:
    """The checkout's short commit hash (``-dirty`` when the tree has
    uncommitted changes), or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).parent, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _trace_codec_row(directory: Path) -> dict:
    """Cold trace costs at the ROADMAP's cold size: the generator's build
    of every event of a fresh trace, straight into packed form; recording
    the built events to ``.espt`` (encoding only: the columns already
    exist); and decoding each event back to the packed streams the fast
    path walks, from an empty event window."""
    scale = 4.0
    trace = EventTrace(get_app("pixlr"), scale=scale, seed=0)
    trace._cache_capacity = len(trace) + 4  # build each event once
    start = time.perf_counter()
    instructions = sum(len(trace.event(k)) for k in range(len(trace)))
    build_s = time.perf_counter() - start
    path = directory / "pixlr.espt"
    start = time.perf_counter()
    size = dump_trace(trace, path)
    dump_s = time.perf_counter() - start
    loaded = load_trace(path)
    start = time.perf_counter()
    for k in range(len(loaded)):
        event = loaded._materialize(k)
        event.packed_true()
        event.packed_spec()
    decode_s = time.perf_counter() - start
    return {
        "workload": f"pixlr scale={scale} seed=0",
        "cache": "cold",
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "events": len(trace),
        "instructions": instructions,
        "build_s_per_event": round(build_s / len(trace), 6),
        "dump_s": round(dump_s, 4),
        "decode_to_packed_s_per_event": round(decode_s / len(loaded), 6),
        "bytes": size,
        "bytes_per_instr": round(size / instructions, 3),
    }


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _time_path(trace, config, reps: int, **sim_kwargs) -> dict:
    """Best-of-``reps`` wall time for one (config, kernel) pair over
    fresh simulators, plus the selected kernel and Minstr/s."""
    state = {}

    def run():
        sim = Simulator(trace, config, **sim_kwargs)
        result = sim.run()
        state["kernel"] = sim.kernel_used
        state["instructions"] = result.instructions

    wall_s = _best_of(run, reps)
    return {
        "wall_s": round(wall_s, 4),
        "minstr_per_s": round(state["instructions"] / wall_s / 1e6, 3),
        "kernel": state["kernel"],
    }


def test_record_throughput_snapshot(tmp_path_factory):
    """Measure object/packed and serial-vs-parallel speedups and the
    trace codec, and write them to ``output/BENCH_throughput.json``."""
    trace = _prewarmed_trace()
    snapshot: dict = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "machine": {"cpu_count": os.cpu_count(),
                    "available_cpus": available_cpus()},
        "workload": "pixlr scale=1.0 seed=0",
        "single_thread": {},
    }
    for name, reps in (("baseline", 5), ("nl", 5), ("esp_nl", 3)):
        config = presets.by_name(name)
        paths = {
            "object": _time_path(trace, config, reps, kernel="object"),
            "packed": _time_path(trace, config, reps, kernel="packed"),
        }
        row = {
            "object_path_s": paths["object"]["wall_s"],
            "packed_path_s": paths["packed"]["wall_s"],
            "object_minstr_per_s": paths["object"]["minstr_per_s"],
            "packed_minstr_per_s": paths["packed"]["minstr_per_s"],
            "packed_kernel": paths["packed"]["kernel"],
            "speedup": round(paths["object"]["wall_s"]
                             / paths["packed"]["wall_s"], 3),
        }
        snapshot["single_thread"][name] = row

    grid_apps = ["bing", "pixlr"]
    grid_configs = [presets.baseline(), presets.esp_nl()]
    timings = {}
    jobs_of = {"serial": 1, "jobs2": 2}
    for label, jobs in jobs_of.items():
        cache = tmp_path_factory.mktemp(f"snapshot-{label}")
        runner = ExperimentRunner(cache_dir=cache, scale=0.25, seed=0,
                                  jobs=jobs)
        start = time.perf_counter()
        runner.grid(grid_configs, apps=grid_apps)
        timings[label] = time.perf_counter() - start
    snapshot["grid_2x2_scale0.25"] = {
        "serial_s": round(timings["serial"], 4),
        "jobs2_s": round(timings["jobs2"], 4),
        "parallel_speedup": round(timings["serial"] / timings["jobs2"], 3),
        "note": "fan-out only helps with >=2 free cores; the auto "
                "backend picks process on >1 usable CPU and stays "
                "serial on single-core containers",
    }

    # one row per execution backend, same 2x2 grid: the honest per-
    # strategy cost on this machine, with what `auto` resolved to
    backends = {}
    for name in ("serial", "process", "auto"):
        cache = tmp_path_factory.mktemp(f"snapshot-backend-{name}")
        runner = ExperimentRunner(cache_dir=cache, scale=0.25, seed=0,
                                  jobs=2, backend=name)
        start = time.perf_counter()
        runner.grid(grid_configs, apps=grid_apps)
        row = {
            "wall_s": round(time.perf_counter() - start, 4),
            "jobs": runner.jobs,
            "resolved": runner.backend_name,
        }
        if runner.backend_choice is not None:
            row["auto_reason"] = runner.backend_choice.reason
        backends[name] = row

    snapshot["grid_2x2_scale0.25"]["backends"] = backends

    # v6: the sampled-fidelity row. One detailed sampled run learns the
    # models and records the replay memo; the timed runs are model-warm
    # — the steady state a sweep over a learned (trace, config) pair
    # sees. The trace is built once and shared (both sides of the
    # comparison pay zero construction cost), and the reference is a
    # *cold* full-detail run: that is the workflow sampling replaces.
    from repro.sim.sampling import clear_model_store

    strace = _prewarmed_trace(scale=2.0)
    config = presets.baseline()

    def cold_full():
        state["result"] = Simulator(strace, config,
                                    kernel="packed").run()

    state: dict = {}
    t_full = _best_of(cold_full, 2)
    full_result = state["result"]

    clear_model_store()
    Simulator(strace, config, fidelity="sampled").run()  # learn + record

    def warm_sampled():
        state["result"] = Simulator(strace, config,
                                    fidelity="sampled").run()

    t_sampled = _best_of(warm_sampled, 3)
    sampled = state["result"]
    achieved = {
        metric: (abs(getattr(sampled, metric) - getattr(full_result,
                                                        metric))
                 / abs(getattr(full_result, metric))
                 if getattr(full_result, metric) else 0.0)
        for metric in ("ipc", "cycles", "instructions")}
    snapshot["sampled_fidelity"] = {
        "workload": "pixlr scale=2.0 seed=0 baseline",
        "full_cold_s": round(t_full, 4),
        "sampled_warm_s": round(t_sampled, 4),
        "speedup_vs_cold_full": round(t_full / t_sampled, 3),
        "minstr_per_s": round(sampled.instructions / t_sampled / 1e6, 3),
        "detailed_events": sampled.detailed_events,
        "extrapolated_events": sampled.sampled_events,
        "error_bounds": sampled.error_bounds,
        "achieved_error": {k: round(v, 6) for k, v in achieved.items()},
    }

    snapshot["trace_codec"] = _trace_codec_row(
        tmp_path_factory.mktemp("snapshot-trace-codec"))

    _OUTPUT_DIR.mkdir(exist_ok=True)
    (_OUTPUT_DIR / "BENCH_throughput.json").write_text(
        json.dumps(snapshot, indent=2) + "\n")
    print()
    print(json.dumps(snapshot, indent=2))
    for entry in snapshot["single_thread"].values():
        assert entry["speedup"] > 0
    for name, row in backends.items():
        assert row["wall_s"] > 0
        assert row["resolved"] in ("serial", "process"), row
    row = snapshot["trace_codec"]
    assert row["bytes_per_instr"] < 6, row
    row = snapshot["sampled_fidelity"]
    assert row["speedup_vs_cold_full"] >= 10.0, row
    assert all(bound <= 0.05
               for bound in row["error_bounds"].values()), row
    assert all(err <= 0.05
               for err in row["achieved_error"].values()), row
