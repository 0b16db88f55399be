"""Unit tests for event-trace generation."""

import pytest

from repro.isa import (
    KIND_BRANCH,
    KIND_IBRANCH,
    KIND_LOAD,
    KIND_STORE,
    is_branch_kind,
    is_memory_kind,
    summarize_stream,
)
from repro.workloads import APPS, EventTrace, get_app
from repro.workloads.generator import (
    FRESH_HEAP_BASE,
    QUEUE_BASE,
    SHARED_BASE,
)


class TestTraceConstruction:
    def test_event_count_scales(self, tiny_app):
        full = EventTrace(tiny_app, scale=1.0)
        half = EventTrace(tiny_app, scale=0.5)
        assert len(half) == max(3, round(len(full) * 0.5))

    def test_minimum_three_events(self, tiny_app):
        assert len(EventTrace(tiny_app, scale=0.0001)) == 3

    def test_invalid_scale(self, tiny_app):
        with pytest.raises(ValueError):
            EventTrace(tiny_app, scale=0)

    def test_index_bounds(self, tiny_trace):
        with pytest.raises(IndexError):
            tiny_trace.event(len(tiny_trace))
        with pytest.raises(IndexError):
            tiny_trace.event(-1)


class TestDeterminism:
    def test_same_seed_identical_streams(self, tiny_app):
        a = EventTrace(tiny_app, seed=4)
        b = EventTrace(tiny_app, seed=4)
        for k in (0, 3, 5):
            assert a.event(k).true_stream == b.event(k).true_stream
            assert a.event(k).spec_stream == b.event(k).spec_stream

    def test_different_seed_differs(self, tiny_app):
        a = EventTrace(tiny_app, seed=4)
        b = EventTrace(tiny_app, seed=5)
        assert any(a.event(k).true_stream != b.event(k).true_stream
                   for k in range(3))

    def test_event_cache_returns_same_object(self, tiny_trace):
        assert tiny_trace.event(2) is tiny_trace.event(2)

    def test_rematerialisation_identical(self, tiny_app):
        trace = EventTrace(tiny_app)
        trace._cache_capacity = 1
        first = list(trace.event(0).true_stream)
        trace.event(1)
        trace.event(2)  # evicts event 0 from the LRU window
        assert trace.event(0).true_stream == first


class TestStreamShape:
    def test_target_lengths_respected(self, tiny_trace):
        for k in range(len(tiny_trace)):
            event = tiny_trace.event(k)
            target = tiny_trace._target_len[k]
            # the walker may overshoot by at most one basic block + the
            # state-write stores
            assert target <= len(event) <= target + 64

    def test_taken_branches_have_targets(self, tiny_trace):
        for inst in tiny_trace.event(1).true_stream:
            if is_branch_kind(inst.kind) and inst.taken:
                assert inst.target != 0

    def test_memory_instructions_have_addresses(self, tiny_trace):
        for inst in tiny_trace.event(1).true_stream:
            if is_memory_kind(inst.kind):
                assert inst.addr > 0

    def test_pcs_inside_code_image(self, tiny_trace):
        image = tiny_trace.image
        low = min(f.base_addr for f in image.functions)
        high = max(f.base_addr + f.code_bytes for f in image.functions)
        for inst in tiny_trace.event(2).true_stream:
            assert low <= inst.pc < high

    def test_stream_has_mixed_kinds(self, tiny_trace):
        stats = summarize_stream(tiny_trace.event(0).packed_true())
        assert stats.loads > 0
        assert stats.stores > 0
        assert stats.branches > 0

    def test_state_writes_emitted_as_stores(self, tiny_trace):
        for k in range(len(tiny_trace)):
            writes = tiny_trace._writes[k]
            if not writes:
                continue
            stores = [inst for inst in tiny_trace.event(k).true_stream[-8:]
                      if inst.kind == KIND_STORE
                      and SHARED_BASE <= inst.addr < SHARED_BASE + 64 * 64]
            written = {(inst.addr - SHARED_BASE) // 64 for inst in stores}
            assert written.issuperset(writes)
            break
        else:
            pytest.skip("no writer events in the tiny trace")


class TestSpeculativeStreams:
    def test_most_events_identical(self, tiny_trace):
        diverged = sum(tiny_trace.event(k).diverged
                       for k in range(len(tiny_trace)))
        assert diverged <= len(tiny_trace) // 3

    def test_identical_events_share_object(self, tiny_trace):
        for k in range(len(tiny_trace)):
            event = tiny_trace.event(k)
            if not event.diverged:
                assert event.spec_stream is event.true_stream
                break

    def test_diverged_share_prefix(self):
        # find a diverged event across the real apps (seeds make it stable)
        for app in APPS.values():
            trace = EventTrace(app, scale=0.6)
            for k in range(len(trace)):
                event = trace.event(k)
                if event.diverged:
                    prefix = 0
                    for a, b in zip(event.true_stream, event.spec_stream):
                        if a != b:
                            break
                        prefix += 1
                    assert 0 < prefix < len(event.true_stream)
                    # divergence begins at a conditional branch
                    branch = event.true_stream[prefix]
                    assert branch.kind == KIND_BRANCH
                    return
        pytest.fail("no diverged event found in any app")

    def test_stale_state_two_events_back(self, tiny_trace):
        k = 5
        assert tiny_trace.stale_state_for(k) == \
            tiny_trace._state_before[k - 2]
        assert tiny_trace.stale_state_for(0) == tiny_trace._state_before[0]


class TestLooper:
    def test_length(self, tiny_trace):
        stream = tiny_trace.looper_stream(0)
        assert len(stream) == tiny_trace.profile.looper_len

    def test_dispatch_is_indirect_to_handler(self, tiny_trace):
        stream = tiny_trace.looper_stream(3)
        dispatch = stream[-1]
        assert dispatch.kind == KIND_IBRANCH
        handler = tiny_trace.image.function(tiny_trace._handler_of[3])
        assert dispatch.target == handler.entry.addr

    def test_queue_accesses(self, tiny_trace):
        stream = tiny_trace.looper_stream(0)
        mem = [i for i in stream if is_memory_kind(i.kind)]
        assert mem
        for inst in mem:
            assert QUEUE_BASE <= inst.addr < QUEUE_BASE + 8 * 64


class TestDataRegions:
    def test_fresh_heap_regions_distinct_per_event(self, tiny_trace):
        def fresh_blocks(k):
            return {inst.addr for inst in tiny_trace.event(k).true_stream
                    if is_memory_kind(inst.kind)
                    and FRESH_HEAP_BASE <= inst.addr < QUEUE_BASE}
        a = fresh_blocks(1)
        b = fresh_blocks(2)
        if a and b:
            assert not (a & b)

    def test_get_app(self):
        assert get_app("amazon").name == "amazon"
        with pytest.raises(KeyError):
            get_app("nonexistent")

    def test_all_profiles_valid(self):
        for app in APPS.values():
            assert sum(app.region_weights) == pytest.approx(1.0, abs=1e-3)
            assert app.n_events >= 3
            assert app.event_len_mean > 100
