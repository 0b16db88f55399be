"""Event-trace generation: walking the synthetic code image.

An :class:`EventTrace` turns an :class:`~repro.workloads.apps.AppProfile`
into a deterministic sequence of :class:`Event` objects. Each event carries

* a true stream — the instructions the event executes when it is finally
  dequeued and run in the normal mode, and
* a speculative stream — the instructions a *speculative pre-execution* of
  the event observes. Pre-execution happens while up to two earlier events
  are still in flight, so it reads *stale* shared state: any branch
  conditioned on a variable written by one of those skipped events
  resolves differently and the speculative stream diverges from that point
  on (the paper measures >99 % agreement between the two; the divergence
  rate here falls out of the profiles' shared-state write rates).

The walker is an interpreter over the code image's CFG. It appends each
dynamic instruction straight to the columns of a
:class:`~repro.isa.stream.PackedStream` (pc, kind, addr, taken, target),
the form the simulator's fast path and ESP pre-execution walk, with no
object per instruction — the shape of a flat integer trace. The object
form (``Event.true_stream`` / ``Event.spec_stream``) is unpacked from the
columns only for the object kernel (the reference model and runahead).
All randomness derives from per-event ``random.Random`` streams, so a
trace is a pure function of (profile, scale, seed).
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.isa.instructions import (
    INSTR_BYTES,
    KIND_ALU,
    KIND_BRANCH,
    KIND_CALL,
    KIND_IBRANCH,
    KIND_JUMP,
    KIND_LOAD,
    KIND_RETURN,
    KIND_STORE,
    Instruction,
)
from repro.isa.stream import PackedStream
from repro.workloads.codebase import (
    TERM_CALL,
    TERM_COND,
    TERM_ICALL,
    TERM_JUMP,
    TERM_RET,
    BasicBlock,
    CodeImage,
    build_code_image,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.apps import AppProfile

# Data address-space layout (byte addresses).
SHARED_BASE = 0x0800_0000
GLOBAL_BASE = 0x1000_0000
HEAP_BASE = 0x2000_0000
FRESH_HEAP_BASE = 0x3000_0000
STREAM_BASE = 0x4000_0000
QUEUE_BASE = 0x6000_0000
STACK_BASE = 0x7FFF_0000

_GLOBAL_REGION_STRIDE = 1 << 20  # per-handler global region spacing
_HEAP_REGION_STRIDE = 1 << 20  # per-event heap region spacing
_FRAME_BYTES = 192
_MAX_CALL_DEPTH = 16


def _state_branch_outcome(value: int, site_pc: int) -> bool:
    """Deterministic direction of a shared-state-conditioned branch."""
    return bool(((value * 2654435761) ^ (site_pc * 40503)) >> 13 & 1)


class Event:
    """One asynchronous event: its true and speculative streams.

    Each stream exists in up to two forms: the packed form
    (:class:`~repro.isa.stream.PackedStream`, walked by the packed kernel
    and ESP pre-execution) and the object form (``list[Instruction]``,
    walked by the object kernel — the readable reference model and
    runahead). Generated events and events loaded from a version-4 trace
    file start from the packed form (:meth:`from_packed`) and unpack on
    first use of :attr:`true_stream` / :attr:`spec_stream`; an event built
    from instruction lists (a version-2/3 trace file) packs on first use
    of :meth:`packed_true` / :meth:`packed_spec`. Either way each form is
    built at most once and cached for the event's lifetime, so every
    configuration simulated against the trace shares it.
    """

    __slots__ = ("index", "handler_fid", "writes", "state_reads",
                 "diverged", "_true_stream", "_spec_stream",
                 "_packed_true", "_packed_spec")

    def __init__(self, index: int, handler_fid: int, writes: tuple[int, ...],
                 true_stream: list[Instruction],
                 spec_stream: list[Instruction],
                 state_reads: frozenset[int]) -> None:
        self.index = index
        self.handler_fid = handler_fid
        #: shared-state variables the event writes at completion
        self.writes = writes
        #: shared-state variables the event's branches read
        self.state_reads = state_reads
        #: True if speculative pre-execution deviates from the true run
        #: (the spec stream is then a separate object, else the same one)
        self.diverged = spec_stream is not true_stream
        self._true_stream = true_stream
        self._spec_stream = spec_stream
        self._packed_true = None
        self._packed_spec = None

    @classmethod
    def from_packed(cls, index: int, handler_fid: int,
                    packed_true: PackedStream, packed_spec: PackedStream,
                    writes: tuple[int, ...] = (),
                    state_reads: frozenset[int] = frozenset()) -> "Event":
        """An event held in packed form only. Pass ``packed_spec`` as
        ``packed_true`` itself when speculation does not diverge."""
        event = cls(index, handler_fid, writes, None, None, state_reads)
        event.diverged = packed_spec is not packed_true
        event._packed_true = packed_true
        event._packed_spec = packed_spec
        return event

    @property
    def true_stream(self) -> list[Instruction]:
        """The instructions the event executes when it finally runs."""
        stream = self._true_stream
        if stream is None:
            stream = self._true_stream = \
                self._packed_true.to_instructions()
        return stream

    @property
    def spec_stream(self) -> list[Instruction]:
        """The instructions a speculative pre-execution observes: the
        :attr:`true_stream` object itself unless it diverged."""
        stream = self._spec_stream
        if stream is None:
            if self.diverged:
                stream = self._packed_spec.to_instructions()
            else:
                stream = self.true_stream
            self._spec_stream = stream
        return stream

    def packed_true(self) -> PackedStream:
        """The true stream's struct-of-arrays packing."""
        packed = self._packed_true
        if packed is None:
            packed = self._packed_true = \
                PackedStream.from_instructions(self._true_stream)
        return packed

    def packed_spec(self) -> PackedStream:
        """The speculative stream's packing (what ESP pre-execution
        consumes). Shares :meth:`packed_true`'s packing for the >99 % of
        events whose speculation does not diverge."""
        if not self.diverged:
            return self.packed_true()
        packed = self._packed_spec
        if packed is None:
            packed = self._packed_spec = \
                PackedStream.from_instructions(self._spec_stream)
        return packed

    def __len__(self) -> int:
        packed = self._packed_true
        return len(packed) if packed is not None \
            else len(self._true_stream)


class _Body:
    """What the walker emits for one basic block's body, precomputed once
    per static block: its pc, kind and zero addr/taken/target columns
    (ALU instructions carry no address), and the body positions of its
    loads and stores, which draw an address each."""

    __slots__ = ("pcs", "kinds", "zeros", "falses", "memory_slots",
                 "streaming", "term_pc")

    def __init__(self, block: BasicBlock) -> None:
        n = len(block.body_kinds)
        self.term_pc = block.addr + n * INSTR_BYTES
        self.pcs = tuple(range(block.addr, self.term_pc, INSTR_BYTES))
        self.kinds = block.body_kinds
        self.zeros = (0,) * n
        self.falses = (False,) * n
        self.memory_slots = tuple(i for i, kind in enumerate(self.kinds)
                                  if kind != KIND_ALU)
        self.streaming = block.streaming


class _Walker:
    """CFG interpreter producing one event's instruction stream, straight
    into the packed columns (one list per
    :class:`~repro.isa.stream.PackedStream` field, no object per
    instruction)."""

    def __init__(self, image: CodeImage, bodies: dict[int, list[_Body]],
                 profile: "AppProfile", event_index: int, handler_fid: int,
                 rng: random.Random, state: dict[int, int]) -> None:
        self.image = image
        #: function id -> its lowered block bodies, shared by every walk
        #: over the image and filled in on first call
        self.bodies = bodies
        self.profile = profile
        self.rng = rng
        self.state = state
        self.handler_fid = handler_fid
        # the stream's columns
        self.pcs: list[int] = []
        self.kinds: list[int] = []
        self.addrs: list[int] = []
        self.takens: list[bool] = []
        self.targets: list[int] = []
        self.state_reads: set[int] = set()
        #: shared-state variables this event writes at completion
        self.writes: tuple[int, ...] = ()
        # data-region bases for this event
        self.global_base = GLOBAL_BASE + \
            (handler_fid % 64) * _GLOBAL_REGION_STRIDE
        self.heap_base = FRESH_HEAP_BASE + \
            (event_index % 8192) * _HEAP_REGION_STRIDE
        self.stream_cursor = STREAM_BASE + \
            (event_index % 64) * (profile.stream_blocks * 64)
        # bump-pointer allocator: fresh heap objects are allocated (and
        # first touched) sequentially, like a real nursery
        self.heap_cursor = self.heap_base
        self._weights = profile.region_weights
        self._heap_blocks = max(1, profile.heap_blocks_per_event)
        self._heap_pool_blocks = max(1, profile.heap_pool_blocks)
        self._heap_fresh_fraction = profile.heap_fresh_fraction
        self._global_blocks = max(1, profile.global_blocks_per_handler)
        self._global_hot_blocks = min(self._global_blocks,
                                      profile.global_hot_blocks)
        self._shared_blocks = max(1, profile.shared_blocks)
        # temporal-locality buffer: real code re-reads recent locations
        self._revisit_prob = profile.revisit_prob
        self._recent: list[int] = []
        self._recent_idx = 0
        # the handler's dispatch pool: private helpers plus a per-handler
        # preference ordering over the shared library
        self._helper_ids = image.handler_helpers.get(handler_fid, [])
        libs = list(image.library_ids)
        random.Random(("libs", handler_fid).__repr__()).shuffle(libs)
        self._preferred_libs = libs or [image.looper_fid]

    # -- data addresses ------------------------------------------------------

    def _body_addresses(self, body: _Body, depth: int) -> list[int]:
        """The address column of one block body: a data address per load
        or store, in program order, and 0 per ALU instruction."""
        addrs = list(body.zeros)
        if body.streaming:
            cursor = self.stream_cursor
            for slot in body.memory_slots:
                cursor += 8
                addrs[slot] = cursor
            self.stream_cursor = cursor
            return addrs
        rng = self.rng
        draw = rng.random
        recent = self._recent
        revisit_prob = self._revisit_prob
        for slot in body.memory_slots:
            # temporal locality: most accesses revisit a recently used
            # location
            if recent and draw() < revisit_prob:
                addrs[slot] = recent[int(len(recent) * draw())]
                continue
            addr = addrs[slot] = self._fresh_address(rng, depth)
            if len(recent) < 48:
                recent.append(addr)
            else:
                self._recent_idx = (self._recent_idx + 1) % 48
                recent[self._recent_idx] = addr
        return addrs

    def _fresh_address(self, rng: random.Random, depth: int) -> int:
        draw = rng.random()
        w_stack, w_global, w_heap, w_shared, w_stream = self._weights
        if draw < w_stack:
            frame_base = STACK_BASE - depth * _FRAME_BYTES
            return frame_base - (int(rng.random() * _FRAME_BYTES) & ~7)
        draw -= w_stack
        if draw < w_global:
            # mostly the handler's hot globals, with a long cold tail
            if rng.random() < 0.92:
                block = int(self._global_hot_blocks * rng.random())
            else:
                block = int(self._global_blocks * rng.random())
            return self.global_base + block * 64 + (int(rng.random() * 8) * 8)
        draw -= w_global
        if draw < w_heap:
            # the app-wide heap pool is shared across events (L2-warm);
            # a slice of accesses goes to this event's fresh allocations
            if rng.random() < self._heap_fresh_fraction:
                self.heap_cursor += 16
                limit = self.heap_base + self._heap_blocks * 64
                if self.heap_cursor >= limit:
                    self.heap_cursor = self.heap_base
                return self.heap_cursor
            block = int(self._heap_pool_blocks * rng.random() ** 2)
            return HEAP_BASE + block * 64 + (int(rng.random() * 8) * 8)
        draw -= w_heap
        if draw < w_shared:
            return SHARED_BASE + int(self._shared_blocks * rng.random()) * 64
        self.stream_cursor += 8
        return self.stream_cursor

    # -- the walk --------------------------------------------------------------

    def _emit(self, pc: int, kind: int, addr: int = 0, taken: bool = False,
              target: int = 0) -> None:
        """Append one instruction to the columns."""
        self.pcs.append(pc)
        self.kinds.append(kind)
        self.addrs.append(addr)
        self.takens.append(taken)
        self.targets.append(target)

    def run(self, target_len: int) -> PackedStream:
        """Produce the event's stream.

        The handler entry runs once, then acts as a driver loop dispatching
        work items — calls into the handler's private helpers and its
        preferred slice of the shared library (a JavaScript handler invoking
        DOM/engine helpers). This is what gives events their large, varied
        instruction working sets: each dispatch touches a different function
        subtree.
        """
        kinds = self.kinds
        targets = self.targets
        image = self.image
        rng = self.rng
        self._walk_function(self.handler_fid, depth=0, budget=target_len)
        entry_block = image.function(self.handler_fid).blocks[0]
        dispatch_pc = entry_block.term_pc
        helpers = self._helper_ids
        libs = self._preferred_libs
        while len(kinds) < target_len:
            before = len(kinds)
            if helpers and rng.random() < 0.5:
                fid = helpers[int(len(helpers) * rng.random())]
            else:
                fid = libs[int(len(libs) * rng.random() ** 1.05)]
            entry = image.function(fid).entry
            # handlers iterate over similar work items: the same helper is
            # dispatched a few times in a row (keeps the indirect dispatch
            # site mostly monomorphic over short windows, like a JS inline
            # cache)
            repeats = 1 + (rng.random() < 0.35)
            for _ in range(repeats):
                if len(kinds) >= target_len:
                    break
                self._emit(dispatch_pc, KIND_IBRANCH, taken=True,
                           target=entry.addr)
                self._walk_function(fid, depth=1, budget=target_len)
                if kinds and kinds[-1] == KIND_RETURN \
                        and targets[-1] == 0:
                    targets[-1] = dispatch_pc + INSTR_BYTES
            if len(kinds) == before:  # safety: nothing emitted
                break
        self._emit_state_writes()
        return PackedStream(self.pcs, kinds, self.addrs, self.takens,
                            targets)

    def _emit_state_writes(self) -> None:
        looper = self.image.function(self.image.looper_fid)
        pc = looper.base_addr
        for var in self.writes:
            self._emit(pc, KIND_STORE, addr=SHARED_BASE + var * 64)

    def _walk_function(self, fid: int, depth: int, budget: int) -> None:
        """Execute one function invocation (recursion mirrors the stack)."""
        image = self.image
        rng = self.rng
        kinds = self.kinds
        targets = self.targets
        emit = self._emit
        body_addresses = self._body_addresses
        add_pcs = self.pcs.extend
        add_kinds = kinds.extend
        add_addrs = self.addrs.extend
        add_takens = self.takens.extend
        add_targets = targets.extend
        blocks = image.function(fid).blocks
        bodies = self.bodies.get(fid)
        if bodies is None:
            bodies = self.bodies[fid] = [_Body(block) for block in blocks]
        n_blocks = len(blocks)
        loop_counts: dict[int, int] = {}
        bidx = 0
        while bidx < n_blocks:
            body = bodies[bidx]
            add_pcs(body.pcs)
            add_kinds(body.kinds)
            add_addrs(body_addresses(body, depth))
            add_takens(body.falses)
            add_targets(body.zeros)
            block = blocks[bidx]
            term_pc = body.term_pc
            term = block.term_kind
            if len(kinds) >= budget:
                # budget exhausted: unwind (no further instructions emitted)
                return
            if term == TERM_RET:
                # a callee's return target is fixed up by its caller
                emit(term_pc, KIND_RETURN, taken=True,
                     target=QUEUE_BASE if depth == 0 else 0)
                return
            if term == TERM_COND:
                if block.state_var >= 0:
                    var = block.state_var
                    self.state_reads.add(var)
                    taken = _state_branch_outcome(self.state.get(var, 0),
                                                  term_pc)
                elif block.loop_trip > 0 and block.target < bidx:
                    seen = loop_counts.get(bidx, 0)
                    taken = seen < block.loop_trip
                    loop_counts[bidx] = 0 if not taken else seen + 1
                else:
                    taken = rng.random() < block.bias
                bidx = block.target if taken else block.fall_through
                emit(term_pc, KIND_BRANCH, taken=taken,
                     target=blocks[bidx].addr)
                continue
            if term == TERM_JUMP:
                if block.target != bidx + 1:
                    emit(term_pc, KIND_JUMP, taken=True,
                         target=blocks[block.target].addr)
                else:
                    emit(term_pc, KIND_ALU)
                bidx = block.target
                continue
            if term == TERM_CALL or term == TERM_ICALL:
                if term == TERM_CALL:
                    callee = block.callee
                    kind = KIND_CALL
                else:
                    # indirect-call targets are sticky: mostly monomorphic
                    # with an occasional different receiver
                    callee = block.candidates[
                        int(len(block.candidates) * rng.random() ** 3)]
                    kind = KIND_IBRANCH
                if depth >= _MAX_CALL_DEPTH:
                    emit(term_pc, KIND_ALU)
                else:
                    emit(term_pc, kind, taken=True,
                         target=image.function(callee).entry.addr)
                    self._walk_function(callee, depth + 1, budget)
                    if kinds[-1] == KIND_RETURN and targets[-1] == 0:
                        targets[-1] = term_pc + INSTR_BYTES
                    if len(kinds) >= budget:
                        return
                bidx = block.fall_through
                continue
            raise AssertionError(f"unknown terminator {term}")
        # fell off the end of the function (shouldn't happen: last is RET)
        return


class EventTrace:
    """Deterministic sequence of events for one application profile.

    Events are materialised lazily and cached in a small LRU window, since
    the simulator only ever needs the current event and the next
    ``depth`` pre-executable events.
    """

    def __init__(self, profile: "AppProfile", scale: float = 1.0,
                 seed: int = 0, image: CodeImage | None = None) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.profile = profile
        self.scale = scale
        self.seed = seed
        #: the code image is a pure function of (profile, seed): ``image``
        #: passes one already built for them instead of rebuilding it
        self.image = image if image is not None else \
            build_code_image(profile.code, seed=profile.seed ^ seed)
        rng = random.Random(("trace", profile.name, seed).__repr__())
        self.n_events = max(3, round(profile.n_events * scale))
        # handler popularity: Zipf-like skew
        n_handlers = len(self.image.handler_entries)
        weights = [1.0 / (rank + 1) ** profile.handler_zipf
                   for rank in range(n_handlers)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        order = list(range(n_handlers))
        rng.shuffle(order)

        self._handler_of: list[int] = []
        self._target_len: list[int] = []
        self._writes: list[tuple[int, ...]] = []
        self._state_before: list[dict[int, int]] = []
        self._event_seed: list[int] = []
        state: dict[int, int] = {}
        n_vars = profile.code.n_state_vars
        for k in range(self.n_events):
            draw = rng.random()
            rank = next(i for i, c in enumerate(cumulative) if draw <= c)
            self._handler_of.append(
                self.image.handler_entries[order[rank]])
            sigma = profile.event_len_cv
            length = profile.event_len_mean * math.exp(
                rng.gauss(-0.5 * sigma * sigma, sigma))
            self._target_len.append(max(50, round(length)))
            self._state_before.append(dict(state))
            if rng.random() < profile.state_write_rate:
                written = tuple(sorted(
                    rng.sample(range(n_vars), k=rng.randint(1, 3))))
            else:
                written = ()
            self._writes.append(written)
            for var in written:
                state[var] = ((k + 1) * 2654435761 + var) & 0xFFFFFFFF
            self._event_seed.append(rng.getrandbits(48))

        self._cache: OrderedDict[int, Event] = OrderedDict()
        self._cache_capacity = 8
        #: the image's lowered block bodies, per function id
        self._bodies: dict[int, list[_Body]] = {}
        self._looper_body: PackedStream | None = None
        #: per-handler packed looper streams (body + dispatch); handlers
        #: repeat constantly, so these are built once each
        self._packed_loopers: dict[int, PackedStream] = {}

    def __len__(self) -> int:
        return self.n_events

    # -- events --------------------------------------------------------------

    def handler_fid(self, index: int) -> int:
        """Handler function id of event ``index`` (without materialising
        the event's streams)."""
        return self._handler_of[index]

    def event_weight(self, index: int) -> int:
        """Planned instruction count of event ``index``, available without
        materialising its streams — the extrapolation covariate used by
        :mod:`repro.sim.sampling` (the actual stream length tracks the
        target closely; the learned per-instruction rates absorb the
        residual)."""
        return self._target_len[index]

    def stale_state_for(self, index: int) -> dict[int, int]:
        """Shared state visible to a pre-execution of event ``index``: the
        state as of two events earlier (the writes of the one or two skipped
        in-flight events are missing)."""
        return self._state_before[max(0, index - 2)]

    def event(self, index: int) -> Event:
        if not 0 <= index < self.n_events:
            raise IndexError(index)
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        event = self._materialize(index)
        self._cache[index] = event
        if len(self._cache) > self._cache_capacity:
            self._cache.popitem(last=False)
        return event

    def _materialize(self, index: int) -> Event:
        handler = self._handler_of[index]
        seed = self._event_seed[index]
        target = self._target_len[index]
        writes = self._writes[index]
        true_state = self._state_before[index]
        stale_state = self.stale_state_for(index)

        walker = _Walker(self.image, self._bodies, self.profile, index,
                         handler, random.Random(seed), true_state)
        walker.writes = writes
        packed_true = walker.run(target)
        reads = frozenset(walker.state_reads)

        differing = {v for v in reads
                     if true_state.get(v, 0) != stale_state.get(v, 0)}
        packed_spec = packed_true
        if differing:
            spec_walker = _Walker(self.image, self._bodies, self.profile,
                                  index, handler, random.Random(seed),
                                  stale_state)
            spec_walker.writes = writes
            packed_spec = spec_walker.run(target)
            if packed_spec == packed_true:
                # the stale values flipped no branch this event executed
                packed_spec = packed_true
        return Event.from_packed(index, handler, packed_true, packed_spec,
                                 writes=writes, state_reads=reads)

    # -- the looper thread -----------------------------------------------------

    def looper_stream(self, index: int) -> list[Instruction]:
        """Queue-management instructions the looper thread executes before
        dispatching event ``index`` (about 70 instructions, Section 3.6),
        ending with the indirect dispatch into the handler."""
        return self.packed_looper_stream(index).to_instructions()

    def packed_looper_stream(self, index: int) -> PackedStream:
        """:meth:`looper_stream` in packed form, cached per handler."""
        return self.packed_looper_for(self._handler_of[index])

    def packed_looper_for(self, handler_fid: int) -> PackedStream:
        """The packed looper stream that dispatches into ``handler_fid``:
        the shared queue-management body plus the indirect dispatch."""
        packed = self._packed_loopers.get(handler_fid)
        if packed is None:
            body = self._looper_body
            if body is None:
                body = self._looper_body = self._build_looper_body()
            dispatch_pc = body.pc[-1] + INSTR_BYTES
            entry = self.image.function(handler_fid).entry.addr
            packed = self._packed_loopers[handler_fid] = body.concat(
                PackedStream((dispatch_pc,), (KIND_IBRANCH,), (0,), (True,),
                             (entry,)))
        return packed

    def _build_looper_body(self) -> PackedStream:
        looper = self.image.function(self.image.looper_fid)
        rng = random.Random(("looper", self.profile.name).__repr__())
        kinds: list[int] = []
        addrs: list[int] = []
        for _ in range(self.profile.looper_len - 1):
            draw = rng.random()
            if draw < 0.3:
                kinds.append(KIND_LOAD)
                addrs.append(QUEUE_BASE + rng.randrange(8) * 64)
            elif draw < 0.45:
                kinds.append(KIND_STORE)
                addrs.append(QUEUE_BASE + rng.randrange(8) * 64)
            else:
                kinds.append(KIND_ALU)
                addrs.append(0)
        n = len(kinds)
        return PackedStream(
            range(looper.base_addr, looper.base_addr + n * INSTR_BYTES,
                  INSTR_BYTES),
            kinds, addrs, (False,) * n, (0,) * n)
