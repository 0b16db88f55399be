"""Sampled simulation with live extrapolation (``--fidelity sampled``).

Pac-Sim-style statistical simulation mapped onto this repo's event-handler
structure: events are classified by their handler function id (the
``handler_fid`` the workload generator assigns), the first events of each
class run in full detail through the normal kernel path while the sampler
tracks the convergence of per-class rate metrics, and once a class's
sliding-window coefficient of variation drops below the configured
threshold its remaining events are *extrapolated* — their architectural
counter deltas are synthesised from the learned per-instruction rates
scaled by the event's planned instruction count (``event_weight``), and
the expensive parts (event materialisation, the per-instruction loops,
ESP pre-execution) are skipped entirely. Every ``probe_every``-th
extrapolated event of a class runs detailed anyway; a probe whose rates
drift beyond ``drift_tolerance`` of the learned window re-arms detailed
mode for that class (phase change), so the model keeps tracking live
behaviour instead of fossilising.

Because one (trace, config) pair is fully deterministic, a class model
additionally memoizes the *exact* counter delta of every event it has
run in detail, keyed by event index. A sampled re-run of a trace whose
events were all observed before replays those recorded deltas verbatim,
which reproduces the full-detail totals exactly (the deltas sum to the
same values in the same order); only events the store has never seen in
detail fall back to the statistical class-mean model.

Results produced this way are tagged (``SimResult.fidelity ==
"sampled"``) and carry per-metric 95 % error bounds derived from the
per-class sample variance of the normalised deltas: for a counter whose
class model was fit on ``n`` detailed events and used to synthesise
events with weights ``w_k``, the extrapolation error variance is
``s² · (Σw_k² + (Σw_k)²/n)`` — the first term is per-event process
noise, the second the shared mean-estimation error — and bounds of
derived ratios (IPC, miss rates) combine their components in quadrature.
Replayed events contribute nothing to the bounds: their deltas are
recordings, not estimates (a replayed event's surrounding cache state
can differ when it is interleaved with extrapolated neighbours — a
second-order effect the bounds deliberately ignore, see DESIGN §13).

Learned class models persist across :class:`~repro.sim.simulator
.Simulator` instances in a process-wide store: the first run of a
(trace, config) pair pays for detailed learning, later runs extrapolate
from the first event on. ``clear_model_store()`` empties it (tests,
benchmarks).

Full fidelity remains the default and is bit-identical to a build
without this module; nothing here runs unless ``--fidelity sampled`` /
``REPRO_FIDELITY=sampled`` asks for it.
"""

from __future__ import annotations

import math
import os
import warnings

from repro.sim.config import SamplingConfig

_FIDELITY_ENV = "REPRO_FIDELITY"
FIDELITY_NAMES = ("full", "sampled")

_warned_bad_fidelity = False


def fidelity_from_env() -> str | None:
    """The ``REPRO_FIDELITY`` override, or None when unset/invalid."""
    raw = os.environ.get(_FIDELITY_ENV, "").strip().lower()
    if not raw:
        return None
    if raw in FIDELITY_NAMES:
        return raw
    global _warned_bad_fidelity
    if not _warned_bad_fidelity:
        _warned_bad_fidelity = True
        warnings.warn(
            f"ignoring invalid {_FIDELITY_ENV}={raw!r} "
            f"(expected one of {', '.join(FIDELITY_NAMES)})",
            RuntimeWarning, stacklevel=2)
    return None


# -- counter-vector layout -----------------------------------------------------
#
# One flat vector snapshots every counter an event can move: the clock,
# the SimResult scalars, the EspStats scalars, the hierarchy's I/D
# prefetch-effectiveness stats, and the per-mode pre_instructions tail
# (fixed length per configuration — the controllers size it at
# construction). Deltas of this vector around a detailed event are what
# the models learn; extrapolation applies synthesised deltas back.

_RESULT_INTS = (
    "instructions", "l1i_accesses", "l1i_misses", "llc_i_misses",
    "l1d_accesses", "l1d_misses", "llc_d_misses",
    "branches", "branch_mispredicts",
)
_RESULT_FLOATS = ("stall_ifetch", "stall_data", "stall_branch")
_ESP_INTS = (
    "mode_entries", "pre_complete_events", "hinted_events",
    "diverged_events", "order_mispredictions", "list_overflows",
    "list_prefetches_i", "list_prefetches_d", "blist_trained",
    "dirty_evictions", "i_cachelet_accesses", "i_cachelet_misses",
    "d_cachelet_accesses", "d_cachelet_misses",
)
_PF_FIELDS = ("issued", "useful", "late", "useless")

IDX_CYCLES = 0
IDX_INSTRUCTIONS = 1
IDX_L1I_MISSES = 1 + _RESULT_INTS.index("l1i_misses")
IDX_L1D_ACCESSES = 1 + _RESULT_INTS.index("l1d_accesses")
IDX_L1D_MISSES = 1 + _RESULT_INTS.index("l1d_misses")
IDX_BRANCHES = 1 + _RESULT_INTS.index("branches")
IDX_BRANCH_MISPREDICTS = 1 + _RESULT_INTS.index("branch_mispredicts")

#: counters accumulated as floats (everything else stays integral, so
#: extrapolated increments are quantised with a carried remainder)
_FLOAT_IDX = frozenset(
    [IDX_CYCLES] + [1 + len(_RESULT_INTS) + i
                    for i in range(len(_RESULT_FLOATS))])

_HEAD_LEN = (1 + len(_RESULT_INTS) + len(_RESULT_FLOATS)
             + len(_ESP_INTS) + 2 * len(_PF_FIELDS))


def snapshot_counters(sim, cycle: float) -> list[float]:
    """Flat copy of every extrapolatable counter of ``sim``."""
    r = sim.result
    vec = [cycle]
    for name in _RESULT_INTS:
        vec.append(getattr(r, name))
    for name in _RESULT_FLOATS:
        vec.append(getattr(r, name))
    esp = r.esp
    for name in _ESP_INTS:
        vec.append(getattr(esp, name))
    for side in ("i", "d"):
        stats = sim.hierarchy.prefetch_stats(side)
        for name in _PF_FIELDS:
            vec.append(getattr(stats, name))
    vec.extend(esp.pre_instructions)
    return vec


def delta_counters(after: list[float], before: list[float]) -> list[float]:
    """``after - before``, tolerating a grown tail (defensive only — the
    ``pre_instructions`` list is sized at controller construction)."""
    n = min(len(after), len(before))
    out = [after[i] - before[i] for i in range(n)]
    out.extend(after[n:])
    return out


def apply_increments(sim, inc: list[float]) -> float:
    """Add one synthesised event delta onto ``sim``'s counters; returns
    the cycle increment (the caller advances its local clock)."""
    r = sim.result
    pos = 1
    for name in _RESULT_INTS:
        setattr(r, name, getattr(r, name) + inc[pos])
        pos += 1
    for name in _RESULT_FLOATS:
        setattr(r, name, getattr(r, name) + inc[pos])
        pos += 1
    esp = r.esp
    for name in _ESP_INTS:
        setattr(esp, name, getattr(esp, name) + inc[pos])
        pos += 1
    for side in ("i", "d"):
        stats = sim.hierarchy.prefetch_stats(side)
        for name in _PF_FIELDS:
            setattr(stats, name, getattr(stats, name) + inc[pos])
            pos += 1
    # mutate pre_instructions in place: its identity is shared with the
    # ESP/runahead controller (same aliasing rule as Simulator.restore)
    pre = esp.pre_instructions
    tail = inc[_HEAD_LEN:]
    for i in range(min(len(pre), len(tail))):
        pre[i] += tail[i]
    return inc[IDX_CYCLES]


def _rate_metrics(vec: list[float], weight: float) -> tuple:
    """Per-event intensity metrics of one delta vector — what the
    convergence window and the drift check watch. All are ratios, so
    they are robust to the (lognormal) event-length spread within a
    class: cycles-per-instruction-of-weight, IPC, L1-I MPKI, L1-D miss
    rate, branch misprediction rate."""
    cycles = vec[IDX_CYCLES]
    instr = vec[IDX_INSTRUCTIONS]
    return (
        cycles / weight if weight else 0.0,
        instr / cycles if cycles else 0.0,
        1000.0 * vec[IDX_L1I_MISSES] / instr if instr else 0.0,
        (vec[IDX_L1D_MISSES] / vec[IDX_L1D_ACCESSES]
         if vec[IDX_L1D_ACCESSES] else 0.0),
        (vec[IDX_BRANCH_MISPREDICTS] / vec[IDX_BRANCHES]
         if vec[IDX_BRANCHES] else 0.0),
    )


#: per-class cap on memoized exact event deltas — a memory backstop far
#: above any realistic event count per class at supported scales
REPLAY_CAP = 4096

#: two-sided 97.5 % Student-t quantiles indexed by degrees of freedom
#: (index 0 unused); past the table the normal quantile is close enough
_T975 = (12.71, 12.71, 4.30, 3.18, 2.78, 2.57, 2.45, 2.37, 2.31, 2.26,
         2.23, 2.20, 2.18, 2.16, 2.14, 2.13, 2.12, 2.11, 2.10, 2.09,
         2.09, 2.08, 2.07, 2.07, 2.06, 2.06, 2.06, 2.05, 2.05, 2.05,
         2.04)


class ClassModel:
    """Learned behaviour of one handler class.

    Accumulates weight-normalised counter deltas (``delta / weight``) of
    detailed events; once converged, synthesises deltas for skipped
    events as ``rate × weight`` with carried quantisation remainders so
    integral counters never drift from the accumulated real-valued
    model. Every detailed event's exact delta is also memoized by event
    index (``replay``), so later sampled runs of the same deterministic
    trace reproduce observed events verbatim instead of estimating
    them."""

    __slots__ = ("n", "weight_sum", "sums", "norm_sums", "norm_sumsqs",
                 "window", "converged", "replay", "extrapolated",
                 "extrapolated_measured", "ex_weight_sum", "ex_weight_sq",
                 "since_probe", "rearms", "_carry")

    def __init__(self) -> None:
        self.n = 0                      # detailed events observed
        self.weight_sum = 0.0           # Σ weight over observed events
        self.sums: list[float] | None = None        # Σ delta
        self.norm_sums: list[float] | None = None   # Σ delta/weight
        self.norm_sumsqs: list[float] | None = None  # Σ (delta/weight)²
        self.window: list[tuple] = []   # recent rate-metric tuples
        self.converged = False
        self.replay: dict[int, list[float]] = {}  # event index -> delta
        self.extrapolated = 0           # events synthesised (whole run)
        self.extrapolated_measured = 0  # … of which post-warmup
        self.ex_weight_sum = 0.0        # Σ weight, post-warmup synthesised
        self.ex_weight_sq = 0.0         # Σ weight², likewise
        self.since_probe = 0
        self.rearms = 0
        self._carry: list[float] | None = None  # quantisation remainders

    # -- learning ------------------------------------------------------------

    def observe(self, vec: list[float], weight: float,
                config: SamplingConfig) -> None:
        w = float(weight) if weight else 1.0
        if self.sums is None or len(self.sums) < len(vec):
            pad = len(vec) - (len(self.sums) if self.sums else 0)
            for name in ("sums", "norm_sums", "norm_sumsqs"):
                cur = getattr(self, name) or []
                setattr(self, name, cur + [0.0] * pad)
        self.n += 1
        self.weight_sum += w
        sums, nsums, nsqs = self.sums, self.norm_sums, self.norm_sumsqs
        for i, value in enumerate(vec):
            sums[i] += value
            x = value / w
            nsums[i] += x
            nsqs[i] += x * x
        self.window.append(_rate_metrics(vec, w))
        if len(self.window) > config.window:
            del self.window[0]
        if not self.converged and self.n >= config.min_detailed \
                and len(self.window) >= config.window:
            self.converged = self._window_cv_ok(config)

    def _window_cv_ok(self, config: SamplingConfig) -> bool:
        half = len(self.window) // 2
        for dim in range(len(self.window[0])):
            values = [m[dim] for m in self.window]
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            sd = math.sqrt(var)
            if mean:
                if sd / abs(mean) > config.cv_threshold:
                    return False
                # trend guard: a window can have a low CV while still
                # drifting monotonically (caches warming across the
                # run); extrapolating a trending rate biases every
                # synthesised event the same way, which the i.i.d.
                # error bound cannot see — so require the window's two
                # halves to agree as well
                first = sum(values[:half]) / half
                second = sum(values[-half:]) / half
                if abs(second - first) > config.cv_threshold * abs(mean):
                    return False
            elif sd:
                return False
        return True

    def drifted(self, vec: list[float], weight: float,
                config: SamplingConfig) -> bool:
        """Whether a probe's rates left the learned window's band."""
        if not self.window:
            return False
        metrics = _rate_metrics(vec, float(weight) if weight else 1.0)
        for dim, value in enumerate(metrics):
            mean = sum(m[dim] for m in self.window) / len(self.window)
            if abs(value - mean) > config.drift_tolerance * abs(mean) \
                    + 1e-12:
                return True
        return False

    def rearm(self) -> None:
        """Phase change: forget the statistics and relearn. The
        extrapolation accounting (counts, weights, carries) survives —
        it describes events already synthesised into the result — and so
        do the memoized replay deltas, which are per-event recordings of
        a deterministic trace, not statistics."""
        self.n = 0
        self.weight_sum = 0.0
        self.sums = self.norm_sums = self.norm_sumsqs = None
        self.window.clear()
        self.converged = False
        self.rearms += 1

    # -- synthesis -----------------------------------------------------------

    def extrapolate(self, weight: float, measured: bool) -> list[float]:
        """One synthesised event delta: learned per-weight rates scaled
        by this event's weight, integral counters quantised with a
        carried remainder."""
        w = float(weight) if weight else 1.0
        rates = [s / self.weight_sum for s in self.sums]
        if self._carry is None or len(self._carry) < len(rates):
            self._carry = ((self._carry or [])
                           + [0.0] * (len(rates)
                                      - len(self._carry or [])))
        inc = []
        carry = self._carry
        for i, rate in enumerate(rates):
            value = rate * w
            if i in _FLOAT_IDX or i >= _HEAD_LEN:
                if i >= _HEAD_LEN:
                    # pre_instructions stay integral too
                    carry[i] += value
                    whole = math.floor(carry[i] + 0.5)
                    carry[i] -= whole
                    inc.append(int(whole))
                else:
                    inc.append(value)
            else:
                carry[i] += value
                whole = math.floor(carry[i] + 0.5)
                carry[i] -= whole
                inc.append(int(whole))
        self.extrapolated += 1
        self.since_probe += 1
        if measured:
            self.extrapolated_measured += 1
            self.ex_weight_sum += w
            self.ex_weight_sq += w * w
        return inc

    def bound_var(self, idx: int) -> float:
        """Error variance this class contributes to counter ``idx``'s
        extrapolated total (see the module docstring for the formula).
        Inflated by a per-class Student-t correction — with single-digit
        sample counts the normal quantile understates the interval just
        enough to lose coin-flip bound checks."""
        if not self.extrapolated_measured or self.n < 2 \
                or self.norm_sums is None or idx >= len(self.norm_sums):
            return 0.0
        n = self.n
        mean = self.norm_sums[idx] / n
        var = self.norm_sumsqs[idx] / n - mean * mean
        s2 = max(0.0, var) * n / (n - 1)
        t_ratio = _T975[min(n - 1, len(_T975) - 1)] / 1.96
        return (s2 * (self.ex_weight_sq + self.ex_weight_sum ** 2 / n)
                * t_ratio * t_ratio)

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "n": self.n, "weight_sum": self.weight_sum,
            "sums": list(self.sums) if self.sums else None,
            "norm_sums": list(self.norm_sums) if self.norm_sums else None,
            "norm_sumsqs": (list(self.norm_sumsqs)
                            if self.norm_sumsqs else None),
            "window": [list(m) for m in self.window],
            "converged": self.converged,
            "replay": {str(k): list(vec)
                       for k, vec in self.replay.items()},
            "extrapolated": self.extrapolated,
            "extrapolated_measured": self.extrapolated_measured,
            "ex_weight_sum": self.ex_weight_sum,
            "ex_weight_sq": self.ex_weight_sq,
            "since_probe": self.since_probe,
            "rearms": self.rearms,
            "carry": list(self._carry) if self._carry else None,
        }

    @classmethod
    def from_state(cls, state: dict, fresh_run: bool) -> "ClassModel":
        model = cls()
        model.n = int(state["n"])
        model.weight_sum = float(state["weight_sum"])
        for name in ("sums", "norm_sums", "norm_sumsqs"):
            value = state.get(name)
            setattr(model, name, list(value) if value else None)
        model.window = [tuple(m) for m in state.get("window", [])]
        model.converged = bool(state.get("converged"))
        model.replay = {int(k): list(vec)
                        for k, vec in state.get("replay", {}).items()}
        model.rearms = int(state.get("rearms", 0))
        if not fresh_run:
            # mid-run restore: the synthesis accounting continues
            model.extrapolated = int(state.get("extrapolated", 0))
            model.extrapolated_measured = \
                int(state.get("extrapolated_measured", 0))
            model.ex_weight_sum = float(state.get("ex_weight_sum", 0.0))
            model.ex_weight_sq = float(state.get("ex_weight_sq", 0.0))
            model.since_probe = int(state.get("since_probe", 0))
            carry = state.get("carry")
            model._carry = list(carry) if carry else None
        return model


class EventSampler:
    """Per-run sampling driver: one :class:`ClassModel` per handler
    class, plus the run-level plan/observe/extrapolate protocol the
    simulator's event loop calls."""

    def __init__(self, config: SamplingConfig | None = None) -> None:
        self.config = config or SamplingConfig()
        self.models: dict[int, ClassModel] = {}
        #: detailed events executed this run (measured region only)
        self.events_detailed = 0
        #: events synthesised from class means this run (warm-up incl.)
        self.events_extrapolated = 0
        #: events replayed from memoized deltas this run (warm-up incl.)
        self.replay_hits = 0
        #: … of which in the measured region
        self.replay_hits_measured = 0
        #: classes re-armed to detailed mode after probe drift, this run
        self.drift_rearms = 0

    # -- the event-loop protocol ---------------------------------------------

    def plan(self, k: int, cls: int) -> str:
        """``"replay"``, ``"detailed"``, ``"probe"`` or
        ``"extrapolate"`` for event index ``k`` of handler class
        ``cls``. A memoized exact delta always wins — it is a recording,
        valid converged or not; the statistical plan only governs events
        the store has never run in detail."""
        model = self.models.get(cls)
        if model is None:
            return "detailed"
        if k in model.replay:
            return "replay"
        if not model.converged:
            return "detailed"
        if model.since_probe >= self.config.probe_every:
            return "probe"
        return "extrapolate"

    def observe(self, k: int, cls: int, vec: list[float], weight: float,
                measured: bool = True, probe: bool = False) -> None:
        """Record one detailed event's counter delta.

        The exact delta is always memoized for replay. It is folded into
        the class statistics only for measured (post-warm-up) events —
        cold-start deltas would bias the rates — and never for probes:
        a probe only drift-checks the model, because an event that ran
        after extrapolated neighbours saw differently-warmed caches than
        the events the model was fit on, and folding it would let that
        bias accumulate."""
        model = self.models.get(cls)
        if model is None:
            model = self.models[cls] = ClassModel()
        if len(model.replay) < REPLAY_CAP:
            model.replay[k] = list(vec)
        if not measured:
            return
        self.events_detailed += 1
        if probe:
            model.since_probe = 0
            if model.converged and model.drifted(vec, weight,
                                                 self.config):
                model.rearm()
                self.drift_rearms += 1
            return
        model.observe(vec, weight, self.config)

    def replay(self, k: int, cls: int, measured: bool) -> list[float]:
        """The memoized exact delta of event ``k`` (``plan`` returned
        ``"replay"``)."""
        self.replay_hits += 1
        if measured:
            self.replay_hits_measured += 1
        return self.models[cls].replay[k]

    def extrapolate(self, cls: int, weight: float,
                    measured: bool) -> list[float]:
        self.events_extrapolated += 1
        return self.models[cls].extrapolate(weight, measured)

    # -- error bounds --------------------------------------------------------

    def error_bounds(self, result) -> dict:
        """Relative 95 % error bounds on the headline metrics of
        ``result``, from the per-class sample variances. All-zero when
        no event was class-mean-extrapolated into the measured region —
        the run was then detailed and/or exactly replayed end to end."""
        z = self.config.confidence_z

        def rel(idx: int, total: float) -> float:
            var = sum(m.bound_var(idx) for m in self.models.values())
            if var <= 0.0:
                return 0.0
            if not total:
                return math.inf
            return z * math.sqrt(var) / abs(total)

        r_cycles = rel(IDX_CYCLES, result.cycles)
        r_instr = rel(IDX_INSTRUCTIONS, result.instructions)
        r_l1i = rel(IDX_L1I_MISSES, result.l1i_misses)
        r_l1d_m = rel(IDX_L1D_MISSES, result.l1d_misses)
        r_l1d_a = rel(IDX_L1D_ACCESSES, result.l1d_accesses)
        r_br_m = rel(IDX_BRANCH_MISPREDICTS, result.branch_mispredicts)
        r_br = rel(IDX_BRANCHES, result.branches)

        def quad(*parts: float) -> float:
            return math.sqrt(sum(p * p for p in parts))

        def clean(value: float) -> float:
            return round(value, 6) if math.isfinite(value) else 1.0

        return {
            "cycles": clean(r_cycles),
            "instructions": clean(r_instr),
            "ipc": clean(quad(r_instr, r_cycles)),
            "l1i_mpki": clean(quad(r_l1i, r_instr)),
            "l1d_miss_rate": clean(quad(r_l1d_m, r_l1d_a)),
            "branch_misprediction_rate": clean(quad(r_br_m, r_br)),
        }

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "config": list(self.config.key()),
            "models": {str(cls): model.state_dict()
                       for cls, model in self.models.items()},
            "events_detailed": self.events_detailed,
            "events_extrapolated": self.events_extrapolated,
            "replay_hits": self.replay_hits,
            "replay_hits_measured": self.replay_hits_measured,
            "drift_rearms": self.drift_rearms,
        }

    @classmethod
    def from_state(cls, state: dict,
                   config: SamplingConfig | None = None,
                   fresh_run: bool = True) -> "EventSampler":
        sampler = cls(config)
        sampler.models = {
            int(fid): ClassModel.from_state(m, fresh_run)
            for fid, m in state.get("models", {}).items()}
        if not fresh_run:
            sampler.events_detailed = int(state.get("events_detailed", 0))
            sampler.events_extrapolated = \
                int(state.get("events_extrapolated", 0))
            sampler.replay_hits = int(state.get("replay_hits", 0))
            sampler.replay_hits_measured = \
                int(state.get("replay_hits_measured", 0))
            sampler.drift_rearms = int(state.get("drift_rearms", 0))
        return sampler


# -- the cross-run model store -------------------------------------------------

_MODEL_STORE: dict[tuple, dict] = {}


def _store_key(trace, config, sampling: SamplingConfig) -> tuple:
    return (type(trace).__name__, trace.profile.name, len(trace),
            getattr(trace, "seed", 0), config.cache_key(), sampling.key())


def sampler_for(trace, config,
                sampling: SamplingConfig | None = None) -> EventSampler:
    """A sampler for one run of (trace, config): seeded from the
    process-wide store when a previous run published models for the same
    identity, fresh otherwise. The run-scoped accounting (synthesised
    counts, quantisation carries) always starts at zero."""
    sampling = sampling or SamplingConfig()
    state = _MODEL_STORE.get(_store_key(trace, config, sampling))
    if state is None:
        return EventSampler(sampling)
    return EventSampler.from_state(state, sampling, fresh_run=True)


def publish_sampler(trace, config, sampling: SamplingConfig | None,
                    sampler: EventSampler) -> None:
    """Persist a finished run's learned models for later runs of the
    same (trace, config) in this process."""
    sampling = sampling or SamplingConfig()
    _MODEL_STORE[_store_key(trace, config, sampling)] = \
        sampler.state_dict()


def clear_model_store() -> None:
    """Empty the cross-run model store (tests, cold benchmarks)."""
    _MODEL_STORE.clear()
