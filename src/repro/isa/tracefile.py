"""Binary event-trace serialisation.

The paper's methodology records instruction traces once (SniperSim's
trace-recording front end on Chromium) and replays them across machine
configurations. This module gives the reproduction the same workflow:
export a generated :class:`~repro.workloads.EventTrace`'s streams to a
compact binary file, and replay them later — or on another machine —
without regenerating. It also provides a stable interchange format for
regression-testing the generator, and backs the experiment harness's
record-once/simulate-many trace cache.

Format (little-endian, magic ``ESPT``, version 4):

* header: magic, version, app-name length + UTF-8 bytes, workload seed,
  event count (varints)
* per event, an index entry: handler id (varint), diverged flag byte,
  true-stream instruction count, spec-stream instruction count (0 ⇒
  shares the true stream), the event's planned weight
  (``trace.event_weight(k)``, the sampling covariate), true-block byte
  length, spec-block byte length (varints); then the blocks
* per stream, one columnar block: ``zlib`` (level 1) over, for ``n``
  instructions, ``n`` flag bytes (``kind | taken << 4``) followed by three
  ``int64`` columns of ``n`` values each — the pc deltas (the first from
  0), the data addresses and the branch targets — so a block inflates to
  exactly ``25 × n`` bytes
* footer: magic ``ESPF`` plus the CRC32 of every preceding byte

The columns are exactly :class:`~repro.isa.stream.PackedStream`'s
fields, so a block decodes straight into the packed form the simulator's
fast path walks: ``array.frombytes`` for the columns,
``itertools.accumulate`` for the pcs and ``bytes.translate`` for the
kinds and taken flags, with no per-instruction Python code. The object
form (``list[Instruction]``) is unpacked from the columns only if the
object kernel asks for it (runahead and the reference model). Mostly-zero
columns compress to ~1.7 B per instruction.

The per-event byte lengths let :func:`load_trace` index every event in
one O(events) skip-scan and decode blocks lazily: a loaded trace holds
the raw file bytes and materialises events on demand into a small LRU
window, the same memory discipline as
:class:`~repro.workloads.EventTrace`.

The footer makes corruption *detectable* instead of latent: a bit-flip
or truncation anywhere in the file raises :class:`TraceIntegrityError`
on load (the harness quarantines the file and regenerates) rather than
decoding to wrong instruction streams. A block that fails to inflate, or
inflates to the wrong length, raises it too.

Older files stay readable. Version 3 (the same header, index without the
weight, and a per-instruction varint stream encoding) is verified
against its footer; version 2 (version 3 without the footer) loads
unverified; version 1 (no seed, no byte-length index) is not readable.
"""

from __future__ import annotations

import io
import os
import sys
import zlib
from array import array
from collections import OrderedDict
from itertools import accumulate, chain
from operator import or_, sub
from pathlib import Path
from typing import BinaryIO

from repro.isa.instructions import BLOCK_SHIFT, Instruction, \
    is_branch_kind, is_memory_kind
from repro.isa.stream import PackedStream

MAGIC = b"ESPT"
VERSION = 4

FOOTER_MAGIC = b"ESPF"
_FOOTER_LEN = len(FOOTER_MAGIC) + 4


class TraceIntegrityError(ValueError):
    """A trace file failed verification: its CRC32 footer, or a stream
    block that does not inflate to its columns."""

_TAKEN_FLAG = 0x10

#: decompressed bytes per instruction in a v4 block: a flags byte and
#: three int64 columns
_INSTR_BYTES = 1 + 3 * 8
_KIND_OF_FLAGS = bytes(flags & 0x0F for flags in range(256))
_TAKEN_OF_FLAGS = bytes(flags >> 4 & 1 for flags in range(256))
_BOOLS = (False, True)
#: the columns are little-endian on disk
_SWAP_BYTES = sys.byteorder == "big"


def _write_varint(out: BinaryIO, value: int) -> None:
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def _read_varint(data: BinaryIO) -> int:
    shift = 0
    value = 0
    while True:
        raw = data.read(1)
        if not raw:
            raise EOFError("truncated varint")
        byte = raw[0]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7


def _encode_block(packed: PackedStream) -> bytes:
    """One stream as a v4 columnar block (see the module docstring)."""
    flags = bytes(map(or_, packed.kind,
                      map(_TAKEN_FLAG.__mul__, packed.taken)))
    pcs = packed.pc
    columns = array("q", map(sub, pcs, chain((0,), pcs)))
    columns.extend(packed.addr)
    columns.extend(packed.target)
    if _SWAP_BYTES:
        columns.byteswap()
    return zlib.compress(flags + columns.tobytes(), 1)


def _decode_block(block, count: int) -> PackedStream:
    """Inverse of :func:`_encode_block` for a stream of ``count``
    instructions, straight into packed form."""
    try:
        raw = zlib.decompress(block)
    except zlib.error as exc:
        raise TraceIntegrityError(f"corrupt stream block: {exc}") from None
    if len(raw) != _INSTR_BYTES * count:
        raise TraceIntegrityError(
            f"stream block holds {len(raw)} bytes, expected "
            f"{_INSTR_BYTES * count} for {count} instructions")
    flags = raw[:count]
    columns = array("q")
    columns.frombytes(memoryview(raw)[count:])
    if _SWAP_BYTES:
        columns.byteswap()
    pc = tuple(accumulate(columns[:count]))
    return PackedStream(
        pc,
        tuple(flags.translate(_KIND_OF_FLAGS)),
        tuple(columns[count:2 * count]),
        tuple(map(_BOOLS.__getitem__, flags.translate(_TAKEN_OF_FLAGS))),
        tuple(columns[2 * count:]),
        tuple(map(BLOCK_SHIFT.__rrshift__, pc)))


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def _read_stream(data: BinaryIO, count: int) -> list[Instruction]:
    """Decode one version-2/3 varint stream."""
    stream: list[Instruction] = []
    last_pc = 0
    for _ in range(count):
        raw = data.read(1)
        if not raw:
            raise EOFError("truncated stream")
        flags = raw[0]
        kind = flags & 0x0F
        taken = bool(flags & _TAKEN_FLAG)
        pc = last_pc + _unzigzag(_read_varint(data))
        last_pc = pc
        addr = 0
        target = 0
        if is_memory_kind(kind):
            addr = _read_varint(data)
        elif is_branch_kind(kind):
            target = _read_varint(data)
        stream.append(Instruction(pc, kind, addr=addr, taken=taken,
                                  target=target))
    return stream


def dump_trace(trace, path: Path | str) -> int:
    """Serialise every event of ``trace`` (an
    :class:`~repro.workloads.EventTrace`, or a :class:`LoadedTrace`) to
    ``path``. Returns bytes written.

    The file is written to a temporary sibling and moved into place, so
    concurrent writers of the same path (parallel experiment workers that
    raced past each other's existence check) each land a complete file
    and readers never observe a partial one. A CRC32 footer over the
    whole payload lets :func:`load_trace` detect any later corruption.
    """
    buffer = io.BytesIO()
    buffer.write(MAGIC)
    _write_varint(buffer, VERSION)
    name = trace.profile.name.encode()
    _write_varint(buffer, len(name))
    buffer.write(name)
    _write_varint(buffer, getattr(trace, "seed", 0))
    _write_varint(buffer, len(trace))
    for index in range(len(trace)):
        event = trace.event(index)
        packed_true = event.packed_true()
        true_block = _encode_block(packed_true)
        spec_block = b""
        spec_count = 0
        if event.diverged:
            packed_spec = event.packed_spec()
            spec_block = _encode_block(packed_spec)
            spec_count = len(packed_spec)
        _write_varint(buffer, event.handler_fid)
        buffer.write(b"\x01" if event.diverged else b"\x00")
        _write_varint(buffer, len(packed_true))
        _write_varint(buffer, spec_count)
        _write_varint(buffer, trace.event_weight(index))
        _write_varint(buffer, len(true_block))
        _write_varint(buffer, len(spec_block))
        buffer.write(true_block)
        buffer.write(spec_block)
    payload = buffer.getvalue()
    payload += FOOTER_MAGIC + zlib.crc32(payload).to_bytes(4, "little")
    path = Path(path)
    tmp = path.parent / (path.name + f".{os.getpid()}.tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)
    return len(payload)


class _EventIndex:
    """Byte-offset record for one serialised event."""

    __slots__ = ("handler_fid", "true_count", "spec_count", "weight",
                 "true_offset", "true_length", "spec_offset",
                 "spec_length")

    def __init__(self, handler_fid: int, true_count: int, spec_count: int,
                 weight: int, true_offset: int, true_length: int,
                 spec_offset: int, spec_length: int) -> None:
        self.handler_fid = handler_fid
        self.true_count = true_count
        self.spec_count = spec_count
        self.weight = weight
        self.true_offset = true_offset
        self.true_length = true_length
        self.spec_offset = spec_offset
        self.spec_length = spec_length


class LoadedTrace:
    """A deserialised trace, API-compatible with the simulator's needs
    (``event(k)``, ``looper_stream(k)``, ``packed_looper_stream(k)``,
    ``handler_fid(k)``, ``event_weight(k)``, ``__len__``).

    Events decode lazily from the raw file bytes into a small LRU window
    — the full object form of a large app would be ~20x the size of the
    encoded bytes — and the looper streams and code image regenerate
    deterministically from the profile and the recorded seed.
    """

    _CACHE_CAPACITY = 8

    def __init__(self, app_name: str, seed: int, data: bytes,
                 index: list[_EventIndex], profile=None,
                 version: int = VERSION, image=None) -> None:
        from repro.workloads import get_app
        from repro.workloads.generator import EventTrace

        self.app_name = app_name
        self.seed = seed
        self.version = version
        self._data = data
        self._index = index
        # regenerate the (tiny, deterministic) looper streams and image
        # from the profile and seed, or take the image of the trace that
        # was recorded; the heavy event streams come from the file
        if profile is None:
            profile = get_app(app_name)
        self._shadow = EventTrace(profile, scale=0.001, seed=seed,
                                  image=image)
        self.profile = self._shadow.profile
        self.image = self._shadow.image
        self._cache: OrderedDict[int, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._index)

    def event(self, index: int):
        if not 0 <= index < len(self._index):
            raise IndexError(index)
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        event = self._materialize(index)
        self._cache[index] = event
        if len(self._cache) > self._CACHE_CAPACITY:
            self._cache.popitem(last=False)
        return event

    def _materialize(self, index: int):
        from repro.workloads.generator import Event

        rec = self._index[index]
        data = memoryview(self._data)
        true_bytes = data[rec.true_offset:rec.true_offset + rec.true_length]
        spec_bytes = data[rec.spec_offset:rec.spec_offset + rec.spec_length]
        if self.version >= 4:
            packed_true = _decode_block(true_bytes, rec.true_count)
            packed_spec = _decode_block(spec_bytes, rec.spec_count) \
                if rec.spec_count else packed_true
            return Event.from_packed(index, rec.handler_fid, packed_true,
                                     packed_spec)
        true_stream = _read_stream(io.BytesIO(true_bytes), rec.true_count)
        spec_stream = _read_stream(io.BytesIO(spec_bytes), rec.spec_count) \
            if rec.spec_count else true_stream
        return Event(index, rec.handler_fid, (), true_stream, spec_stream,
                     frozenset())

    def handler_fid(self, index: int) -> int:
        return self._index[index].handler_fid

    def event_weight(self, index: int) -> int:
        """The extrapolation covariate used by :mod:`repro.sim.sampling`,
        without materialisation: the recorded trace's planned instruction
        count (:meth:`EventTrace.event_weight
        <repro.workloads.EventTrace.event_weight>`), so a sampled run
        gives the same result on a trace and on its recording. Version-2
        and -3 files did not record it; for them this is the recorded
        true-stream instruction count instead."""
        return self._index[index].weight

    def looper_stream(self, index: int) -> list[Instruction]:
        """:meth:`EventTrace.looper_stream
        <repro.workloads.EventTrace.looper_stream>` for event ``index``."""
        return self.packed_looper_stream(index).to_instructions()

    def packed_looper_stream(self, index: int) -> PackedStream:
        """:meth:`looper_stream` in packed form, cached per handler (by
        the shadow trace, which regenerates it)."""
        return self._shadow.packed_looper_for(
            self._index[index].handler_fid)


def load_trace(path: Path | str, profile=None, image=None) -> LoadedTrace:
    """Deserialise a trace written by :func:`dump_trace`.

    Builds the event index in one skip-scan; stream decoding happens
    lazily per event. ``profile`` supplies the
    :class:`~repro.workloads.AppProfile` when the trace's app name is not
    one of the built-in registry entries. ``image`` passes the code image
    of the :class:`~repro.workloads.EventTrace` that recorded the file, so
    the loaded trace does not build it again.

    Version-4 and -3 files verify their CRC32 footer before any decoding
    — truncation or bit-flips raise :class:`TraceIntegrityError`.
    Version-2 files (pre-footer) still load, unverified.
    """
    payload = Path(path).read_bytes()
    data = io.BytesIO(payload)
    if data.read(4) != MAGIC:
        raise ValueError("not an ESP trace file")
    version = _read_varint(data)
    if version in (3, 4):
        if len(payload) < data.tell() + _FOOTER_LEN:
            raise TraceIntegrityError("trace footer missing (truncated?)")
        if payload[-_FOOTER_LEN:-4] != FOOTER_MAGIC:
            raise TraceIntegrityError(
                "trace footer magic missing (truncated or overwritten)")
        stored = int.from_bytes(payload[-4:], "little")
        actual = zlib.crc32(payload[:-_FOOTER_LEN])
        if stored != actual:
            raise TraceIntegrityError(
                f"trace checksum mismatch: stored {stored:#010x}, "
                f"computed {actual:#010x}")
        body_end = len(payload) - _FOOTER_LEN
    elif version == 2:  # pre-footer format: readable, unverified
        body_end = len(payload)
    else:
        raise ValueError(f"unsupported trace version {version}")
    name = data.read(_read_varint(data)).decode()
    seed = _read_varint(data)
    n_events = _read_varint(data)
    index: list[_EventIndex] = []
    for _ in range(n_events):
        handler = _read_varint(data)
        flag = data.read(1)
        if len(flag) != 1:
            raise EOFError("truncated event header")
        diverged = flag == b"\x01"
        true_count = _read_varint(data)
        spec_count = _read_varint(data)
        weight = _read_varint(data) if version >= 4 else true_count
        true_length = _read_varint(data)
        spec_length = _read_varint(data)
        true_offset = data.tell()
        spec_offset = true_offset + true_length
        end = spec_offset + spec_length
        if end > body_end:
            raise EOFError("truncated stream data")
        if diverged != bool(spec_count):
            raise ValueError("inconsistent divergence flag")
        index.append(_EventIndex(handler, true_count, spec_count, weight,
                                 true_offset, true_length, spec_offset,
                                 spec_length))
        data.seek(end)
    return LoadedTrace(name, seed, payload, index, profile=profile,
                       version=version, image=image)
