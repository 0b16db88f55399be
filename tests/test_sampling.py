"""Sampled fidelity (``--fidelity sampled``): convergence, drift
re-arming, error bounds, cache-key isolation and checkpoint/resume.

The unit half drives :class:`~repro.sim.sampling.EventSampler` directly
with synthetic counter deltas — stationary classes must converge and
extrapolate, drifted probes must re-arm detailed mode. The integration
half runs the real simulator on the tiny workload: a model-warm sampled
run must reproduce the full-detail totals exactly (the replay memo makes
deterministic traces exact), sampled errors must sit within the reported
bounds, sampled and full results must never share cache keys, and a
sampled run must checkpoint/resume bit-identically.
"""

from __future__ import annotations

import json

import pytest

from repro.sim import presets, sampling
from repro.sim.config import SamplingConfig, SimConfig
from repro.sim.experiments import ExperimentRunner
from repro.sim.results import SimResult
from repro.sim.sampling import (
    _HEAD_LEN,
    IDX_BRANCH_MISPREDICTS,
    IDX_BRANCHES,
    IDX_CYCLES,
    IDX_INSTRUCTIONS,
    IDX_L1D_ACCESSES,
    IDX_L1D_MISSES,
    IDX_L1I_MISSES,
    EventSampler,
    clear_model_store,
    fidelity_from_env,
)
from repro.sim.simulator import Simulator


@pytest.fixture(autouse=True)
def _fresh_model_store():
    """Each test starts cold and leaves nothing behind for the next."""
    clear_model_store()
    yield
    clear_model_store()


def _vec(cycles=2000.0, instructions=1000, l1i_misses=10,
         l1d_accesses=300, l1d_misses=15, branches=200,
         mispredicts=10) -> list[float]:
    vec = [0.0] * _HEAD_LEN
    vec[IDX_CYCLES] = cycles
    vec[IDX_INSTRUCTIONS] = instructions
    vec[IDX_L1I_MISSES] = l1i_misses
    vec[IDX_L1D_ACCESSES] = l1d_accesses
    vec[IDX_L1D_MISSES] = l1d_misses
    vec[IDX_BRANCHES] = branches
    vec[IDX_BRANCH_MISPREDICTS] = mispredicts
    return vec


def _tight_config(**overrides) -> SamplingConfig:
    knobs = dict(min_detailed=4, window=4, cv_threshold=0.2,
                 probe_every=3, drift_tolerance=0.3)
    knobs.update(overrides)
    return SamplingConfig(**knobs)


class TestConvergence:
    def test_stationary_class_converges_and_extrapolates(self):
        sampler = EventSampler(_tight_config())
        for k in range(4):
            assert sampler.plan(k, cls=7) == "detailed"
            sampler.observe(k, 7, _vec(), weight=1000.0)
        assert sampler.models[7].converged
        assert sampler.plan(99, cls=7) == "extrapolate"

    def test_extrapolation_reproduces_stationary_deltas(self):
        sampler = EventSampler(_tight_config())
        for k in range(4):
            sampler.observe(k, 7, _vec(), weight=1000.0)
        inc = sampler.extrapolate(7, weight=1000.0, measured=True)
        assert inc[IDX_CYCLES] == pytest.approx(2000.0)
        assert inc[IDX_INSTRUCTIONS] == 1000
        assert isinstance(inc[IDX_INSTRUCTIONS], int)

    def test_noisy_class_does_not_converge(self):
        sampler = EventSampler(_tight_config())
        for k in range(8):
            noisy = _vec(cycles=2000.0 * (1 + (k % 2)))  # CV ~ 0.33
            sampler.observe(k, 7, noisy, weight=1000.0)
        assert not sampler.models[7].converged
        assert sampler.plan(99, cls=7) == "detailed"

    def test_trending_class_does_not_converge(self):
        """Low CV but monotonic drift: the trend guard must refuse."""
        sampler = EventSampler(_tight_config(cv_threshold=0.3))
        for k in range(8):
            # geometric ramp: the window CV sits at ~0.25 (inside the
            # 0.3 threshold) while the window halves keep disagreeing
            trending = _vec(cycles=2000.0 * 1.25 ** k)
            sampler.observe(k, 7, trending, weight=1000.0)
        assert not sampler.models[7].converged

    def test_replay_wins_over_everything(self):
        sampler = EventSampler(_tight_config())
        sampler.observe(3, 7, _vec(), weight=1000.0)
        # unconverged (one observation) — yet event 3 replays
        assert sampler.plan(3, cls=7) == "replay"
        assert sampler.replay(3, 7, measured=True) == _vec()


class TestDriftRearm:
    def _converged_sampler(self) -> EventSampler:
        sampler = EventSampler(_tight_config())
        for k in range(4):
            sampler.observe(k, 7, _vec(), weight=1000.0)
        assert sampler.models[7].converged
        return sampler

    def test_probe_scheduled_after_probe_every(self):
        sampler = self._converged_sampler()
        for _ in range(3):  # probe_every = 3
            assert sampler.plan(100, cls=7) == "extrapolate"
            sampler.extrapolate(7, weight=1000.0, measured=True)
        assert sampler.plan(103, cls=7) == "probe"

    def test_drifted_probe_rearms_detailed_mode(self):
        sampler = self._converged_sampler()
        for _ in range(3):
            sampler.extrapolate(7, weight=1000.0, measured=True)
        drifted = _vec(cycles=4000.0)  # 2x the learned rate
        sampler.observe(103, 7, drifted, weight=1000.0,
                        measured=True, probe=True)
        assert sampler.drift_rearms == 1
        assert not sampler.models[7].converged
        assert sampler.models[7].rearms == 1
        # a never-seen event runs detailed again until reconvergence
        assert sampler.plan(200, cls=7) == "detailed"

    def test_clean_probe_keeps_the_model(self):
        sampler = self._converged_sampler()
        for _ in range(3):
            sampler.extrapolate(7, weight=1000.0, measured=True)
        sampler.observe(103, 7, _vec(), weight=1000.0,
                        measured=True, probe=True)
        assert sampler.drift_rearms == 0
        assert sampler.models[7].converged
        assert sampler.plan(200, cls=7) == "extrapolate"

    def test_probes_never_fold_into_the_statistics(self):
        sampler = self._converged_sampler()
        n_before = sampler.models[7].n
        for _ in range(3):
            sampler.extrapolate(7, weight=1000.0, measured=True)
        sampler.observe(103, 7, _vec(cycles=2100.0), weight=1000.0,
                        measured=True, probe=True)
        assert sampler.models[7].n == n_before


class TestErrorBounds:
    def test_zero_without_extrapolation(self):
        sampler = EventSampler(_tight_config())
        for k in range(4):
            sampler.observe(k, 7, _vec(), weight=1000.0)
        bounds = sampler.error_bounds(SimResult(cycles=1.0,
                                                instructions=1))
        assert all(b == 0.0 for b in bounds.values())

    def test_positive_after_noisy_extrapolation(self):
        sampler = EventSampler(_tight_config(cv_threshold=0.5))
        for k in range(6):
            sampler.observe(k, 7, _vec(cycles=2000.0 + 50.0 * (k % 3)),
                            weight=1000.0)
        assert sampler.models[7].converged
        sampler.extrapolate(7, weight=1000.0, measured=True)
        result = SimResult(instructions=7000, cycles=14000.0,
                           l1i_misses=70, l1d_accesses=2100,
                           l1d_misses=105, branches=1400,
                           branch_mispredicts=70)
        bounds = sampler.error_bounds(result)
        assert bounds["cycles"] > 0.0
        assert bounds["ipc"] >= bounds["cycles"]  # quadrature


class TestFidelityEnv:
    @pytest.fixture(autouse=True)
    def _reset_warn_once(self):
        sampling._warned_bad_fidelity = False
        yield
        sampling._warned_bad_fidelity = False

    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIDELITY", raising=False)
        assert fidelity_from_env() is None

    def test_valid_values_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "sampled")
        assert fidelity_from_env() == "sampled"
        monkeypatch.setenv("REPRO_FIDELITY", " FULL ")
        assert fidelity_from_env() == "full"

    def test_invalid_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "approximate")
        with pytest.warns(RuntimeWarning, match="REPRO_FIDELITY"):
            assert fidelity_from_env() is None
        # warn-once: the second read is silent
        assert fidelity_from_env() is None

    def test_simulator_env_fallback(self, tiny_app, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "nonsense")
        with pytest.warns(RuntimeWarning):
            result = Simulator(tiny_app, SimConfig()).run()
        assert result.fidelity == "full"

    def test_ctor_rejects_unknown_fidelity(self, tiny_app):
        with pytest.raises(ValueError, match="fidelity"):
            Simulator(tiny_app, SimConfig(), fidelity="approximate")


PRESETS = [("baseline", SimConfig), ("esp_nl", presets.esp_nl)]


class TestSampledVsFull:
    @pytest.mark.parametrize("name,make_config", PRESETS)
    def test_warm_sampled_run_is_exact(self, tiny_app, name,
                                       make_config):
        """A model-warm sampled run replays every observed event's exact
        delta, so its headline totals equal full detail bit for bit and
        every metric sits inside its (zero) reported bound."""
        full = Simulator(tiny_app, make_config()).run()
        cold = Simulator(tiny_app, make_config(),
                         fidelity="sampled").run()
        warm = Simulator(tiny_app, make_config(),
                         fidelity="sampled").run()
        assert cold.fidelity == warm.fidelity == "sampled"
        assert full.fidelity == "full"
        assert warm.cycles == full.cycles
        assert warm.instructions == full.instructions
        assert warm.ipc == full.ipc
        assert warm.sampled_events > 0
        for metric, bound in warm.error_bounds.items():
            reference = getattr(full, metric)
            assert abs(getattr(warm, metric) - reference) \
                <= bound * abs(reference) + 1e-12, \
                f"{name}: {metric} outside its reported bound"

    def test_full_fidelity_unchanged_by_sampled_runs(self, tiny_app):
        """Sampled activity must never perturb the default path."""
        before = Simulator(tiny_app, SimConfig()).run().to_dict()
        Simulator(tiny_app, SimConfig(), fidelity="sampled").run()
        Simulator(tiny_app, SimConfig(), fidelity="sampled").run()
        after = Simulator(tiny_app, SimConfig()).run().to_dict()
        before.pop("fidelity"), after.pop("fidelity")
        assert after == before

    def test_event_split_accounts_for_every_event(self, tiny_app):
        cold = Simulator(tiny_app, SimConfig(),
                         fidelity="sampled").run()
        assert cold.detailed_events + cold.sampled_events == cold.events


class TestCacheKeyIsolation:
    def test_sampled_and_full_keys_never_collide(self, tmp_path):
        full = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        samp = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                fidelity="sampled")
        config = SimConfig()
        assert full._key("pixlr", config) != samp._key("pixlr", config)
        assert samp._key("pixlr", config).endswith("-sampled")

    def test_sampled_results_never_pollute_full_cache(self, tmp_path):
        config = SimConfig()
        samp = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                fidelity="sampled")
        sampled = samp.run("pixlr", config)
        assert sampled.fidelity == "sampled"
        full = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        # the sampled entry must be invisible to the full-fidelity key
        assert full._load_cached(full._key("pixlr", config)) is None
        result = full.run("pixlr", config)
        assert result.fidelity == "full"
        # and each runner round-trips its own entry
        assert samp._load_cached(
            samp._key("pixlr", config)).fidelity == "sampled"
        assert full._load_cached(
            full._key("pixlr", config)).fidelity == "full"


def _collect_sampled_checkpoints(app, config, every=3):
    states = []
    sim = Simulator(app, config, fidelity="sampled")
    sim.checkpoint_every = every
    sim.checkpoint_sink = states.append
    clean = sim.run().to_dict()
    return clean, states


class TestSampledCheckpointResume:
    def test_cold_sampled_resume_is_bit_identical(self, tiny_app):
        clean, states = _collect_sampled_checkpoints(tiny_app,
                                                     SimConfig())
        assert len(states) >= 3
        for state in states:
            state = json.loads(json.dumps(state))
            fresh = Simulator(tiny_app, SimConfig(), fidelity="sampled")
            fresh.restore(state)
            assert fresh.run().to_dict() == clean, \
                f"resume at {state['loop']['position']} diverged"

    def test_warm_sampled_resume_is_bit_identical(self, tiny_app):
        """Resume while the replay memo is live: the checkpointed
        sampler state must carry the memoized deltas across."""
        Simulator(tiny_app, SimConfig(), fidelity="sampled").run()
        clean, states = _collect_sampled_checkpoints(tiny_app,
                                                     SimConfig())
        for state in states:
            state = json.loads(json.dumps(state))
            fresh = Simulator(tiny_app, SimConfig(), fidelity="sampled")
            fresh.restore(state)
            assert fresh.run().to_dict() == clean

    def test_checkpoint_records_fidelity(self, tiny_app):
        _clean, states = _collect_sampled_checkpoints(tiny_app,
                                                      SimConfig())
        assert all(s["fidelity"] == "sampled" for s in states)
        assert all(s["sampling"] is not None for s in states)

    def test_full_checkpoint_has_full_fidelity_tag(self, tiny_app):
        states = []
        sim = Simulator(tiny_app, SimConfig())
        sim.checkpoint_every = 3
        sim.checkpoint_sink = states.append
        sim.run()
        assert all(s["fidelity"] == "full" for s in states)
        assert all(s["sampling"] is None for s in states)

    def test_fidelity_mismatch_rejected_before_mutation(self, tiny_app):
        _clean, states = _collect_sampled_checkpoints(tiny_app,
                                                      SimConfig())
        clean_full = Simulator(tiny_app, SimConfig()).run().to_dict()
        sim = Simulator(tiny_app, SimConfig())  # full-fidelity run
        with pytest.raises(ValueError, match="fidelity"):
            sim.restore(states[0])
        # the rejected restore must not have corrupted the simulator
        assert sim.run().to_dict() == clean_full


class TestResultFidelityFields:
    def test_roundtrip_through_to_dict(self):
        r = SimResult(app="x", config="y", instructions=10, cycles=20.0)
        r.fidelity = "sampled"
        r.detailed_events = 3
        r.sampled_events = 11
        r.error_bounds = {"ipc": 0.01}
        back = SimResult.from_dict(r.to_dict())
        assert back.fidelity == "sampled"
        assert back.detailed_events == 3
        assert back.sampled_events == 11
        assert back.error_bounds == {"ipc": 0.01}

    def test_default_is_full_with_no_bounds(self):
        r = SimResult()
        assert r.fidelity == "full"
        assert r.error_bounds == {}

    def test_rate_properties_guard_degenerate_divisions(self):
        """Regression: every rate property returns 0.0 — not ZeroDivision
        — on an empty result (sampled extrapolation can synthesise
        zero-access windows)."""
        r = SimResult()
        assert r.ipc == 0.0
        assert r.l1i_mpki == 0.0
        assert r.l1d_miss_rate == 0.0
        assert r.branch_misprediction_rate == 0.0
        assert r.extra_instruction_fraction == 0.0
        assert r.speedup_over(SimResult()) == 0.0


class TestSamplingConfigValidation:
    def test_defaults_are_valid(self):
        config = SamplingConfig()
        assert config.min_detailed >= 2
        assert len(config.key()) == 6

    @pytest.mark.parametrize("kwargs", [
        {"min_detailed": 0}, {"window": 1}, {"cv_threshold": 0.0},
        {"probe_every": 0}, {"drift_tolerance": -1.0},
        {"confidence_z": 0.0},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplingConfig(**kwargs)


class TestTraceSourceIndependence:
    def test_recording_gives_the_generated_trace_result(self, tiny_app,
                                                        tmp_path):
        """Extrapolation scales by ``event_weight``: a recording must
        carry the generator's planned weights, not the recorded stream
        lengths, or a sampled result depends on where its trace came
        from."""
        from repro.isa.tracefile import dump_trace, load_trace
        from repro.workloads import EventTrace

        knobs = SamplingConfig(min_detailed=2, window=2, cv_threshold=10.0)
        trace = EventTrace(tiny_app)
        path = tmp_path / "trace.espt"
        dump_trace(trace, path)
        loaded = load_trace(path, profile=tiny_app)
        generated = Simulator(trace, presets.baseline(), fidelity="sampled",
                              sampling=knobs).run()
        clear_model_store()
        recorded = Simulator(loaded, presets.baseline(), fidelity="sampled",
                             sampling=knobs).run()
        assert generated.sampled_events > 0
        assert recorded.to_dict() == generated.to_dict()
