"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``--workload all`` runs every workload
and prints all of their metrics. One harness process generates all load:
each timed run is a fresh ``child.py`` process on an empty cache
directory, with every ambient ``REPRO_*`` variable scrubbed, so the
environment cannot change what is measured. The workload seed reaches the
program only as the runner's ``seed`` (``repro run --seed``).

``--trace 0`` prints the end-to-end metrics, each the median over the
timed runs. Their times (``wall_norm_s`` and ``setup_s``) are given at a
nominal host speed: each run's times are scaled by how long a fixed
calibration loop took in the same child just before and after the timed
call, on as many CPUs as the run uses (see ``CALIB_REF_S``). The raw
times are shown in the table and kept in the records. The runs cycle
through the workload's inputs (program seeds derived from ``--seed``)
until each ran once and ``--seconds`` have passed. ``--trace 1`` runs
the single-worker form of the workload on its first input: untraced for
``--seconds``, then once with span wrappers on the layer entry points.
It prints the per-layer split (see ``layers.py``).
Either way every simulation is checked field by field against an
object-kernel reference, computed once per invocation and outside
timing. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Run records (cache state, CPU count, commit, backend and kernels) are
appended to ``perfbench/out/records.jsonl``; traced runs also write
``perfbench/out/layers-<workload>.json`` and their raw spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

APP = "pixlr"
#: the ROADMAP's cold size: a cold single run takes seconds, not ms
SCALE = 4.0
#: timed runs per invocation, whatever ``--seconds`` allows
MIN_RUNS = 3
#: one child may take this long before it is killed and counted failed
CHILD_TIMEOUT_S = 90.0


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[str, ...]
    jobs: int
    #: whether set-up records the app's trace into the empty cache
    record_trace: bool
    #: program seeds (inputs) one invocation cycles through
    inputs: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("cold-run", ("baseline",), 1, False, 12,
             "the single-design-point path a user runs first: trace "
             "generation and .espt encoding dominate it, while ESP, "
             "runahead, trace decode and fan-out do no work"),
    Workload("grid-cached-traces", ("nl", "nl_s", "runahead_nl", "esp_nl"),
             2, True, 6,
             "the figure-campaign path: the only workload where trace "
             "decode, the process backend (4 tasks on 2 workers), ESP and "
             "runahead do work; it runs all three kernels"),
)}

END_TO_END = (("wall_norm_s", "s"), ("minstr_per_norm_s", "Minstr/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "fraction"))

#: the calibration loop's time (``child.calibrate``) on the nominal host
#: that the reported times are given for. A run's wall and set-up times
#: scaled by this over the loop's time around the run do not move with the
#: speed of a shared host, which drifts by tens of percent over minutes.
CALIB_REF_S = 0.1


# -- child processes --------------------------------------------------------


def scrubbed_env(environ) -> dict:
    """``environ`` without any ``REPRO_*`` variable (kernel, fidelity,
    backend, jobs, faults, metrics, checkpoints, store, cache dir, scale,
    seed and the rest), with ``src`` importable and hashing fixed."""
    env = {k: v for k, v in environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait until
    it is gone (pool workers are the child's, not ours, to reap)."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(spec: dict, env: dict) -> dict:
    """Run ``child.py`` on ``spec`` in a fresh process and cache directory;
    its output, or ``{"error": ...}``."""
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        spec = dict(spec, cache_dir=str(work / "cache"),
                    out=str(work / "out.json"))
        spec_path = work / "spec.json"
        spec["spawned_at"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        with open(work / "stderr.txt", "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr,
                start_new_session=True)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                _stop_group(proc.pid)
                proc.wait()
                return {"error": f"timeout after {CHILD_TIMEOUT_S:.0f}s"}
            finally:
                _stop_group(proc.pid)
        out_path = work / "out.json"
        if not out_path.exists():
            tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
            return {"error": f"exit {proc.returncode}: {tail}"}
        return json.loads(out_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- correctness gate -------------------------------------------------------


def differing_fields(got, want, path: str = "") -> list[str]:
    """Dotted paths of the fields where two ``SimResult`` dicts differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        out = []
        for key in sorted(set(got) | set(want), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in got or key not in want:
                out.append(sub)
            else:
                out.extend(differing_fields(got[key], want[key], sub))
        return out
    return [] if got == want else [path or "<root>"]


class Gate:
    """Counts simulations attempted and failed against the reference
    results, which are keyed by the program seed they were made with."""

    def __init__(self, reference: dict[int, list[dict]],
                 configs: tuple[str, ...]):
        self.reference = reference
        self.configs = configs
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, run: dict, seed: int, key: str = "results") -> None:
        """Count ``run[key]`` against the reference for ``seed``: an error
        or timeout fails every simulation the run was to make."""
        want = self.reference[seed]
        self.attempted += len(want)
        if "error" in run:
            self.failed += len(want)
            self.notes.append(run["error"].strip().splitlines()[-1])
            return
        for name, got, ref in zip(self.configs, run[key], want):
            fields = differing_fields(got, ref)
            if fields:
                self.failed += 1
                self.notes.append(f"seed {seed} {name}: {', '.join(fields)}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# -- labels -----------------------------------------------------------------


def source_label() -> dict:
    """The commit (when the checkout is a git repository) and a digest of
    the program's source, so records from different trees compare."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0))}


def record(run: dict, labels: dict, **extra) -> dict:
    """One run's record: its labels, cache state, backend and kernels."""
    keys = ("seed", "wall_s", "calib_s", "setup_s", "peak_rss_mb",
            "trace_cache", "result_cache", "backend", "jobs", "error")
    return dict(labels, **extra, **{k: run[k] for k in keys if k in run})


# -- measurement ------------------------------------------------------------


def program_seeds(seed: int, count: int) -> list[int]:
    """The program seeds a benchmark seed stands for: one run averages
    over several inputs, so one unusually long trace cannot set a
    metric."""
    return [seed * 1000 + k for k in range(count)]


def timed_runs(spec: dict, env: dict, seeds: list[int], seconds: float,
               gate: Gate) -> list[dict]:
    """Fresh-child runs of ``spec``, cycling through ``seeds``, until every
    seed ran at least once (and :data:`MIN_RUNS` runs were made) and
    ``seconds`` have passed."""
    runs = []
    end = time.monotonic() + seconds
    while len(runs) < max(MIN_RUNS, len(seeds)) or time.monotonic() < end:
        seed = seeds[len(runs) % len(seeds)]
        run = spawn(dict(spec, mode="timed", seed=seed), env)
        gate.check(run, seed)
        runs.append(dict(run, seed=seed))
    return runs


def instructions(run: dict) -> int:
    return sum(result["instructions"] for result in run["results"])


def at_nominal_speed(run: dict, key: str) -> float:
    """The run's time ``key`` at the nominal host speed."""
    return run[key] * CALIB_REF_S / run["calib_s"]


def end_to_end(runs: list[dict], gate: Gate) -> dict:
    """Each end-to-end metric's samples, one per completed run (the
    correctness share has one for the whole invocation)."""
    ok = [run for run in runs if "error" not in run]
    return {
        "wall_norm_s": [at_nominal_speed(run, "wall_s") for run in ok],
        "minstr_per_norm_s": [
            instructions(run) / at_nominal_speed(run, "wall_s") / 1e6
            for run in ok],
        "setup_s": [at_nominal_speed(run, "setup_s") for run in ok],
        "peak_rss_mb": [run["peak_rss_mb"] for run in ok],
        "ok_frac": [1.0 - gate.failed_frac],
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def reference_results(base: dict, seeds: list[int],
                      env: dict) -> tuple[dict, dict]:
    """Object-kernel results for every seed, and the kernel each config
    resolves to. Nothing is timed while they are made, so the seeds are
    split over one untimed child per CPU."""
    width = max(1, min(len(seeds), len(os.sched_getaffinity(0))))
    parts = [seeds[k::width] for k in range(width)]
    with ThreadPoolExecutor(width) as pool:
        children = list(pool.map(
            lambda part: spawn(dict(base, mode="reference", seeds=part),
                               env), parts))
    results = {}
    for child in children:
        if "error" in child:
            raise RuntimeError(f"reference run failed: {child['error']}")
        results.update((int(seed), res)
                       for seed, res in child["results"].items())
    return results, children[0]["kernels"]


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            scale: float, labels: dict) -> tuple[Gate, dict, list[dict]]:
    """One workload's metrics (value and unit by name), with its gate and
    run records."""
    env = scrubbed_env(os.environ)
    seeds = program_seeds(seed, 1 if trace else workload.inputs)
    base = {"app": APP, "configs": list(workload.configs), "scale": scale,
            "record_trace": workload.record_trace, "jobs": workload.jobs}
    reference, kernels = reference_results(base, seeds, env)
    gate = Gate(reference, workload.configs)
    tags = dict(labels, workload=workload.name, bench_seed=seed,
                scale=scale, kernels=kernels)
    if not trace:
        runs = timed_runs(base, env, seeds, seconds, gate)
        samples = end_to_end(runs, gate)
        if not samples["wall_norm_s"]:
            raise RuntimeError(f"every run failed: {gate.notes[:3]}")
        # the raw times are shown, not reported
        ok = [run for run in runs if "error" not in run]
        for key in ("wall_s", "setup_s", "calib_s"):
            samples[f"raw.{key}"] = [run[key] for run in ok]
        units = dict(END_TO_END, **{"raw.wall_s": "s", "raw.setup_s": "s",
                                    "raw.calib_s": "s"})
        metrics = {}
        for name, unit in units.items():
            q1, q3 = quartiles(samples[name])
            metrics[name] = {"value": statistics.median(samples[name]),
                             "unit": unit, "q1": q1, "q3": q3,
                             "n": len(samples[name]),
                             "shown_only": name not in dict(END_TO_END)}
        return gate, metrics, [record(r, tags, kind="timed") for r in runs]

    # the single-worker form on the first input, untraced then traced;
    # exec.* from a metrics-on run at the workload's own width
    single = dict(base, jobs=1)
    untraced = timed_runs(single, env, seeds, seconds, gate)
    walls = [at_nominal_speed(run, "wall_s") for run in untraced
             if "error" not in run]
    metrics_env = dict(env, REPRO_METRICS="1")
    traced = spawn(dict(single, mode="traced", seed=seeds[0]), metrics_env)
    gate.check(traced, seeds[0])
    if "error" in traced or not walls:
        raise RuntimeError(f"traced pass failed: {gate.notes[-1:]}")
    gate.check(traced, seeds[0], key="read_results")
    exec_run = traced
    if workload.jobs > 1:
        exec_run = spawn(dict(base, mode="timed", seed=seeds[0]),
                         metrics_env)
        gate.check(exec_run, seeds[0])
        if "error" in exec_run:
            raise RuntimeError(f"metrics run failed: {gate.notes[-1:]}")
    # the untraced wall time at the host speed of the traced run
    untraced_wall = (statistics.median(walls) * traced["calib_s"]
                     / CALIB_REF_S)
    values = layers.per_layer(traced, untraced_wall, exec_run,
                              list(workload.configs))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in layers.PER_LAYER}
    records = [record(r, tags, kind="untraced-single") for r in untraced]
    records.append(record(traced, tags, kind="traced",
                          read_cache=traced["read_cache"]))
    if exec_run is not traced:
        records.append(record(exec_run, tags, kind="exec-metrics"))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"layers-{workload.name}.json").write_text(json.dumps(
        {"records": records[len(untraced):], "untraced_wall_norm_s": walls,
         "trace_events": traced["trace_events"],
         "counts": traced["spans"]["counts"], "metrics": metrics},
        indent=1) + "\n")
    (OUT / f"spans-{workload.name}.json").write_text(
        json.dumps(traced["spans"]))
    return gate, metrics, records


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(name: str, gate: Gate, metrics: dict) -> None:
    print(f"== {name}: {gate.attempted - gate.failed}/{gate.attempted} "
          f"simulations match the object-kernel reference "
          f"(failed_frac {gate.failed_frac:.4g})")
    for note in gate.notes[:10]:
        print(f"   mismatch: {note}")
    for metric, entry in metrics.items():
        spread = ""
        if "n" in entry:
            spread = (f"  [q1 {_fmt(entry['q1'])}, q3 {_fmt(entry['q3'])},"
                      f" n={entry['n']}]")
        print(f"   {metric:<26} {_fmt(entry['value']):>14} "
              f"{entry['unit']}{spread}")


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    labels = source_label()
    attempted = failed = 0
    merged: dict = {}
    records: list[dict] = []
    for name in names:
        try:
            gate, metrics, recs = measure(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                SCALE, labels)
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print_table(name, gate, metrics)
        attempted += gate.attempted
        failed += gate.failed
        records.extend(recs)
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, entry in metrics.items():
            if entry.get("shown_only"):
                continue
            merged[prefix + metric] = {"value": entry["value"],
                                       "unit": entry["unit"]}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "records.jsonl", "a") as log:
        for rec in records:
            log.write(json.dumps(rec) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
