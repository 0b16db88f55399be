"""The layer map: which ``repro`` entry points are wrapped, under which
per-layer metric name, and how the traced run's spans, results and run
log fold into the per-layer metrics.

Every span name is a metric: its value is the summed self time of the
spans of that name inside the timed ``run_many`` call.
"""

from __future__ import annotations

import importlib

from tracer import fold_self_times

#: (module, class or None for a module function, attribute, span name).
#: Module functions are patched where ``repro.sim.experiments`` looks
#: them up.
SPANS = (
    ("repro.sim.experiments", "ExperimentRunner", "run_many",
     "runner.batch_s"),
    ("repro.sim.experiments", "ExperimentRunner", "run",
     "runner.store_write_s"),
    ("repro.sim.experiments", "ExperimentRunner", "trace", "runner.trace_s"),
    ("repro.workloads.generator", "EventTrace", "__init__",
     "workloads.image_s"),
    ("repro.workloads.generator", "EventTrace", "event",
     "workloads.build_s"),
    ("repro.sim.experiments", None, "dump_trace", "tracefile.encode_s"),
    ("repro.sim.experiments", None, "load_trace", "tracefile.index_s"),
    ("repro.isa.tracefile", "LoadedTrace", "event", "tracefile.decode_s"),
    ("repro.workloads.generator", "Event", "packed_true", "stream.pack_s"),
    ("repro.workloads.generator", "Event", "packed_spec", "stream.pack_s"),
    ("repro.workloads.generator", "EventTrace", "packed_looper_stream",
     "stream.pack_s"),
    ("repro.isa.tracefile", "LoadedTrace", "packed_looper_stream",
     "stream.pack_s"),
    ("repro.sim.simulator", "Simulator", "__init__", "sim.construct_s"),
    ("repro.sim.simulator", "Simulator", "run", "sim.loop_s"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "access_i",
     "memory.access_s"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "access_d",
     "memory.access_s"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "prefetch",
     "memory.access_s"),
    ("repro.branch.pentium_m", "PentiumMPredictor", "execute_branch",
     "branch.execute_s"),
    ("repro.esp.controller", "EspController", "begin_event", "esp.self_s"),
    ("repro.esp.controller", "EspController", "on_stall", "esp.self_s"),
    ("repro.runahead.runahead", "RunaheadController", "on_stall",
     "runahead.self_s"),
)

#: (module, class, attribute, counter name): calls counted, not timed
COUNTERS = (
    ("repro.workloads.generator", "EventTrace", "_materialize",
     "events_built"),
    ("repro.isa.tracefile", "LoadedTrace", "_materialize",
     "events_decoded"),
)

KERNELS = ("object", "packed", "vector")

#: every per-layer metric, in report order
PER_LAYER = (
    ("setup.import_s", "s"),
    ("setup.trace_record_s", "s"),
    ("runner.batch_s", "s"),
    ("runner.trace_s", "s"),
    ("runner.store_write_s", "s"),
    ("runner.store_read_s", "s"),
    ("workloads.image_s", "s"),
    ("workloads.build_s", "s"),
    ("workloads.build_ratio", "ratio"),
    ("tracefile.encode_s", "s"),
    ("tracefile.bytes", "bytes"),
    ("tracefile.index_s", "s"),
    ("tracefile.decode_s", "s"),
    ("tracefile.decode_ratio", "ratio"),
    ("stream.pack_s", "s"),
    ("sim.construct_s", "s"),
    ("sim.loop_s", "s"),
    ("sim.loop_ns_per_instr", "ns"),
    ("sim.kernel.object", "count"),
    ("sim.kernel.packed", "count"),
    ("sim.kernel.vector", "count"),
    ("memory.access_s", "s"),
    ("branch.execute_s", "s"),
    ("esp.self_s", "s"),
    ("esp.calls", "count"),
    ("runahead.self_s", "s"),
    ("memory.l1i_mpki", "mpki"),
    ("memory.l1d_miss_rate", "fraction"),
    ("prefetch.i_useful_frac", "fraction"),
    ("prefetch.d_useful_frac", "fraction"),
    ("branch.mispredict_rate", "fraction"),
    ("esp.pre_instructions", "count"),
    ("esp.hinted_events", "count"),
    ("esp.ipc_gain_pct", "%"),
    ("exec.busy_frac", "fraction"),
    ("exec.overhead_s", "s"),
    ("exec.queue_wait_s", "s"),
    ("exec.retries", "count"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
)

#: span names whose self times tile the traced wall time
SELF_TIME_SPANS = tuple(dict.fromkeys(name for *_, name in SPANS))


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def install(tracer) -> None:
    """Wrap every entry point in :data:`SPANS` and :data:`COUNTERS`, and
    count the kernel each ``Simulator.run`` actually used."""
    for module, cls, attr, name in COUNTERS:
        tracer.patch(_owner(module, cls), attr,
                     lambda func, name=name: tracer.counter(name, func))
    for module, cls, attr, name in SPANS:
        tracer.patch(_owner(module, cls), attr,
                     lambda func, name=name: tracer.span(name, func))
    counts = tracer.counts
    for kernel in KERNELS:
        counts.setdefault(f"sim.kernel.{kernel}", 0)
    simulator = _owner("repro.sim.simulator", "Simulator")

    def count_kernel(run):
        def counted(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            counts[f"sim.kernel.{self.kernel_used}"] += 1
            return result
        return counted

    tracer.patch(simulator, "run", count_kernel)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def simulated_counts(results: list[dict], configs: list[str]) -> dict:
    """Per-layer metrics read from ``SimResult`` dicts: model outputs, so
    a speed-only change must leave every one of them unchanged."""
    total = {key: sum(r[key] for r in results)
             for key in ("instructions", "l1i_misses", "l1d_accesses",
                         "l1d_misses", "branches", "branch_mispredicts",
                         "prefetches_issued_i", "prefetches_useful_i",
                         "prefetches_issued_d", "prefetches_useful_d")}
    by_config = dict(zip(configs, results))
    esp = by_config.get("esp_nl")
    base = by_config.get("nl_s")
    ipc_gain = 0.0
    if esp is not None and base is not None:
        ipc_gain = 100.0 * (_ratio(esp["instructions"], esp["cycles"])
                            / _ratio(base["instructions"], base["cycles"])
                            - 1.0)
    return {
        "memory.l1i_mpki": 1000.0 * _ratio(total["l1i_misses"],
                                           total["instructions"]),
        "memory.l1d_miss_rate": _ratio(total["l1d_misses"],
                                       total["l1d_accesses"]),
        "prefetch.i_useful_frac": _ratio(total["prefetches_useful_i"],
                                         total["prefetches_issued_i"]),
        "prefetch.d_useful_frac": _ratio(total["prefetches_useful_d"],
                                         total["prefetches_issued_d"]),
        "branch.mispredict_rate": _ratio(total["branch_mispredicts"],
                                         total["branches"]),
        "esp.pre_instructions": sum(sum(r["esp"]["pre_instructions"])
                                    for r in results),
        "esp.hinted_events": sum(r["esp"]["hinted_events"]
                                 for r in results),
        "esp.ipc_gain_pct": ipc_gain,
    }


def exec_metrics(run: dict) -> dict:
    """``exec.*`` from one metrics-on run: per-task times from its run
    log, queue waits from the coordinator's metrics registry."""
    tasks = [r for r in run.get("runlog", [])
             if r.get("kind") == "run" and r.get("cache") == "simulated"]
    task_s = sum(r["trace_load_s"] + r["simulate_s"] + r["store_s"]
                 for r in tasks)
    workers = max(1, min(run["jobs"], len(tasks)))
    wall = run["wall_s"]
    retries = run["retries"] + sum(
        1 for r in run.get("runlog", []) if r.get("kind") == "retry")
    queue = run["metrics"]["histograms"].get("backend.queue_wait_s", {})
    return {"exec.busy_frac": _ratio(task_s, workers * wall),
            "exec.overhead_s": wall - task_s / workers,
            "exec.queue_wait_s": queue.get("sum", 0.0),
            "exec.retries": retries}


def per_layer(traced: dict, untraced_wall_s: float, exec_run: dict,
              configs: list[str]) -> dict:
    """Every per-layer metric for one workload.

    ``traced`` is the traced child's output, ``untraced_wall_s`` the
    median wall time of the same run without wrappers (at the traced
    run's host speed), ``exec_run`` the
    metrics-on run whose log gives ``exec.*``.
    """
    spans = traced["spans"]
    self_s = fold_self_times(spans)
    counts = spans["counts"]
    results = traced["results"]
    n_events = traced["trace_events"]
    instructions = sum(r["instructions"] for r in results)
    wall = traced["wall_s"]
    out = {name: self_s.get(name, 0.0) for name in SELF_TIME_SPANS}
    esp_calls = 0
    names = spans["names"]
    if "esp.self_s" in names:
        ident = names.index("esp.self_s")
        esp_calls = sum(1 for n in spans["name"] if n == ident)
    out.update({
        "setup.import_s": traced["import_s"],
        "setup.trace_record_s": traced.get("trace_record_s", 0.0),
        "runner.store_read_s": traced["store_read_s"],
        "workloads.build_ratio": _ratio(counts["events_built"], n_events),
        "tracefile.bytes": traced["trace_bytes"],
        "tracefile.decode_ratio": _ratio(counts["events_decoded"],
                                         n_events * len(results)),
        "sim.loop_ns_per_instr": 1e9 * _ratio(out["sim.loop_s"],
                                              instructions),
        "esp.calls": esp_calls,
        "trace.coverage": _ratio(sum(self_s.values()), wall),
        "trace.overhead_frac": _ratio(wall, untraced_wall_s) - 1.0,
    })
    for kernel in KERNELS:
        out[f"sim.kernel.{kernel}"] = counts[f"sim.kernel.{kernel}"]
    out.update(simulated_counts(results, configs))
    out.update(exec_metrics(exec_run))
    return {name: out[name] for name, _unit in PER_LAYER}
