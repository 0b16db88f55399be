"""Tests for binary trace serialisation."""

import dataclasses
import io
import zlib
from pathlib import Path

import pytest

from repro.isa import KIND_ALU, KIND_BRANCH, KIND_LOAD, Instruction
from repro.isa import tracefile
from repro.isa.stream import PackedStream
from repro.isa.tracefile import (
    _FOOTER_LEN,
    FOOTER_MAGIC,
    TraceIntegrityError,
    _decode_block,
    _encode_block,
    _read_varint,
    _unzigzag,
    _write_varint,
    dump_trace,
    load_trace,
)
from repro.workloads import EventTrace

#: ``EventTrace(tiny_app)`` (seed 0) recorded by the version-3 writer,
#: kept to pin that legacy files stay readable
V3_FIXTURE = Path(__file__).parent / "data" / "tiny-v3.espt"


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2 ** 31,
                                       2 ** 45])
    def test_roundtrip(self, value):
        buffer = io.BytesIO()
        _write_varint(buffer, value)
        buffer.seek(0)
        assert _read_varint(buffer) == value

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _write_varint(io.BytesIO(), -1)

    def test_truncated_raises(self):
        with pytest.raises(EOFError):
            _read_varint(io.BytesIO(b"\x80"))

    @pytest.mark.parametrize("value", [0, 1, -1, 4, -4, 10 ** 9, -10 ** 9])
    def test_zigzag_roundtrip(self, value):
        # the version-3 writer mapped 0, -1, 1, -2, ... to 0, 1, 2, 3, ...
        encoded = 2 * value if value >= 0 else -2 * value - 1
        assert _unzigzag(encoded) == value

    def test_small_values_one_byte(self):
        buffer = io.BytesIO()
        _write_varint(buffer, 42)
        assert len(buffer.getvalue()) == 1


class TestTraceRoundtrip:
    def test_full_roundtrip(self, tiny_app, tmp_path):
        trace = EventTrace(tiny_app)
        path = tmp_path / "trace.espt"
        size = dump_trace(trace, path)
        assert size == path.stat().st_size

        loaded = load_trace(path, profile=tiny_app)
        assert len(loaded) == len(trace)
        assert loaded.app_name == tiny_app.name
        for k in range(len(trace)):
            original = trace.event(k)
            restored = loaded.event(k)
            assert restored.true_stream == original.true_stream
            assert restored.handler_fid == original.handler_fid
            assert loaded.event_weight(k) == trace.event_weight(k)
            assert restored.diverged == original.diverged
            if original.diverged:
                assert restored.spec_stream == original.spec_stream
            else:
                assert restored.spec_stream is restored.true_stream
        # the recorded weight is the planned one, not the stream length
        assert any(trace.event_weight(k) != len(trace.event(k))
                   for k in range(len(trace)))

    def test_diverged_events_roundtrip_packed_first(self, tiny_app,
                                                    tmp_path):
        app = dataclasses.replace(tiny_app, state_write_rate=0.5)
        trace = EventTrace(app)
        path = tmp_path / "trace.espt"
        dump_trace(trace, path)
        loaded = load_trace(path, profile=app)
        diverged = [k for k in range(len(trace)) if trace.event(k).diverged]
        assert diverged  # the profile must exercise the spec block
        for k in range(len(trace)):
            original = trace.event(k)
            restored = loaded.event(k)
            assert restored.diverged == original.diverged
            # decoded straight to packed form; no object stream yet
            assert restored._true_stream is None
            assert restored.packed_true() == original.packed_true()
            assert restored.packed_spec() == original.packed_spec()
            assert (restored.packed_spec() is restored.packed_true()) \
                == (not original.diverged)
            assert restored.spec_stream == original.spec_stream
            assert restored.true_stream == original.true_stream
            assert (restored.spec_stream is restored.true_stream) \
                == (not original.diverged)
            assert len(restored) == len(original)

    def test_looper_streams_regenerate(self, tiny_app, tmp_path):
        trace = EventTrace(tiny_app)
        path = tmp_path / "trace.espt"
        dump_trace(trace, path)
        loaded = load_trace(path, profile=tiny_app)
        assert loaded.looper_stream(2) == trace.looper_stream(2)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_event_index_out_of_range_raises(self, tiny_app, tmp_path,
                                             offset):
        trace = EventTrace(tiny_app)
        path = tmp_path / "trace.espt"
        dump_trace(trace, path)
        loaded = load_trace(path, profile=tiny_app)
        index = len(loaded) + offset if offset >= 0 else offset
        with pytest.raises(IndexError):
            trace.event(index)
        with pytest.raises(IndexError):
            loaded.event(index)

    def test_loaded_trace_simulates(self, tiny_app, tmp_path):
        from repro.sim import presets
        from repro.sim.simulator import Simulator

        trace = EventTrace(tiny_app)
        path = tmp_path / "trace.espt"
        dump_trace(trace, path)
        loaded = load_trace(path, profile=tiny_app)
        direct = Simulator(trace, presets.esp_nl()).run()
        replayed = Simulator(loaded, presets.esp_nl()).run()
        assert replayed.cycles == direct.cycles
        assert replayed.instructions == direct.instructions

    def test_compactness(self, tiny_app, tmp_path):
        trace = EventTrace(tiny_app)
        path = tmp_path / "trace.espt"
        size = dump_trace(trace, path)
        total_instructions = sum(len(trace.event(k))
                                 for k in range(len(trace)))
        assert size / total_instructions < 6  # bytes per instruction

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.espt"
        path.write_bytes(b"NOPE rest")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bogus.espt"
        path.write_bytes(b"ESPT\x63")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_truncated_file(self, tiny_app, tmp_path):
        trace = EventTrace(tiny_app)
        path = tmp_path / "trace.espt"
        dump_trace(trace, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises((EOFError, ValueError)):
            load_trace(path)


def _events(loaded):
    return [(loaded.event(k).true_stream, loaded.event(k).spec_stream)
            for k in range(len(loaded))]


class TestTraceIntegrity:
    """The CRC32 footer: corruption anywhere is detected — a load either
    raises or decodes streams identical to the original, never wrong
    data."""

    @pytest.fixture(scope="class")
    def recorded(self, tiny_app, tmp_path_factory):
        trace = EventTrace(tiny_app)
        path = tmp_path_factory.mktemp("traces") / "trace.espt"
        dump_trace(trace, path)
        return trace, path, path.read_bytes()

    def test_footer_present(self, recorded):
        _, _, payload = recorded
        assert payload[-_FOOTER_LEN:-4] == FOOTER_MAGIC

    def test_zero_length_file(self, tmp_path):
        path = tmp_path / "empty.espt"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_v2_file_without_footer_still_loads(self, tiny_app, recorded,
                                                tmp_path):
        """Pre-footer (version 2) files are readable, unverified: version
        2 is the version-3 fixture without its footer."""
        trace, _, _ = recorded
        legacy = bytearray(V3_FIXTURE.read_bytes()[:-_FOOTER_LEN])
        assert legacy[4] == 3  # version varint right after the magic
        legacy[4] = 2
        path = tmp_path / "legacy.espt"
        path.write_bytes(bytes(legacy))
        loaded = load_trace(path, profile=tiny_app)
        assert loaded.version == 2
        assert len(loaded) == len(trace)
        for k in range(len(trace)):
            assert loaded.event(k).true_stream == trace.event(k).true_stream

    def test_v3_fixture_loads_identical_streams(self, tiny_app):
        """A file from the version-3 (varint) writer decodes to the same
        streams, in object and packed form, as a fresh generation."""
        loaded = load_trace(V3_FIXTURE, profile=tiny_app)
        trace = EventTrace(tiny_app)
        assert loaded.version == 3
        assert len(loaded) == len(trace)
        for k in range(len(trace)):
            original = trace.event(k)
            restored = loaded.event(k)
            assert restored.handler_fid == original.handler_fid
            assert restored.diverged == original.diverged
            assert restored.true_stream == original.true_stream
            assert restored.spec_stream == original.spec_stream
            assert restored.packed_true() == original.packed_true()
            assert restored.packed_spec() == original.packed_spec()
            # version 3 did not record the planned weight
            assert loaded.event_weight(k) == len(original.true_stream)

    @pytest.mark.parametrize("block", ["not_zlib", "wrong_length"])
    def test_corrupt_block_under_valid_crc_raises(self, tiny_app, recorded,
                                                  tmp_path, monkeypatch,
                                                  block):
        """A block that passes the CRC (a writer fault, not a flip on
        disk) but does not inflate to ``25 × count`` bytes raises
        :class:`TraceIntegrityError` — a ``ValueError``, which the
        runner's quarantine paths catch — never ``zlib.error``."""
        _, good, payload = recorded
        path = tmp_path / "corrupt.espt"
        if block == "not_zlib":
            # overwrite the first event's true block in place and
            # recompute the CRC
            rec = load_trace(good, profile=tiny_app)._index[0]
            corrupt = bytearray(payload[:-_FOOTER_LEN])
            corrupt[rec.true_offset:rec.true_offset + rec.true_length] = \
                b"\xff" * rec.true_length
            corrupt += FOOTER_MAGIC + zlib.crc32(corrupt).to_bytes(
                4, "little")
            path.write_bytes(bytes(corrupt))
        else:
            monkeypatch.setattr(tracefile, "_encode_block",
                                lambda packed: zlib.compress(b"\0" * 25))
            dump_trace(EventTrace(tiny_app), path)
        loaded = load_trace(path, profile=tiny_app)  # the CRC holds
        with pytest.raises(TraceIntegrityError):
            loaded.event(0)

    @pytest.mark.parametrize("region", ["header", "varint_index", "stream",
                                        "footer"])
    def test_bit_flip_every_region_detected(self, tiny_app, recorded,
                                            tmp_path, region):
        """Flipping a bit in any byte region either raises on load or
        leaves the decoded streams bit-identical (a flip of the version
        byte to the legacy value changes no payload bytes)."""
        trace, path, payload = recorded
        spans = {
            "header": range(0, 12),
            "varint_index": range(12, 24),
            "stream": range(24, len(payload) - _FOOTER_LEN),
            "footer": range(len(payload) - _FOOTER_LEN, len(payload)),
        }[region]
        reference = None
        step = max(1, len(spans) // 64)  # sample long regions
        for at in list(spans)[::step]:
            for bit in (0x01, 0x80):
                corrupt = bytearray(payload)
                corrupt[at] ^= bit
                target = tmp_path / "corrupt.espt"
                target.write_bytes(bytes(corrupt))
                try:
                    loaded = load_trace(target, profile=tiny_app)
                except (ValueError, EOFError, KeyError):
                    continue  # detected: ValueError covers the CRC error
                if reference is None:
                    reference = _events(load_trace(path, profile=tiny_app))
                assert _events(loaded) == reference, \
                    f"silent wrong decode at byte {at} bit {bit:#x}"

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_truncation_everywhere_detected(self, tiny_app, recorded,
                                            tmp_path, keep_fraction):
        _, _, payload = recorded
        cut = int(len(payload) * keep_fraction)
        path = tmp_path / "truncated.espt"
        path.write_bytes(payload[:cut])
        with pytest.raises((ValueError, EOFError)):
            load_trace(path, profile=tiny_app)

    def test_appended_garbage_detected(self, tiny_app, recorded, tmp_path):
        _, _, payload = recorded
        path = tmp_path / "padded.espt"
        path.write_bytes(payload + b"\x00garbage")
        with pytest.raises(TraceIntegrityError):
            load_trace(path, profile=tiny_app)


class TestStreamEncoding:
    STREAM = [
        Instruction(0x1000, KIND_ALU),
        Instruction(0x1004, KIND_LOAD, addr=0x9000_0008),
        Instruction(0x1008, KIND_BRANCH, taken=True, target=0x0800),
        Instruction(0x0800, KIND_BRANCH, taken=False),
    ]

    def test_mixed_kinds(self):
        packed = PackedStream.from_instructions(self.STREAM)
        decoded = _decode_block(_encode_block(packed), len(self.STREAM))
        assert decoded == packed
        assert decoded.block == packed.block
        assert all(type(taken) is bool for taken in decoded.taken)
        assert decoded.to_instructions() == self.STREAM

    def test_block_layout(self):
        """Flag bytes, then little-endian int64 pc deltas, addresses and
        targets."""
        n = len(self.STREAM)
        raw = zlib.decompress(_encode_block(
            PackedStream.from_instructions(self.STREAM)))
        assert len(raw) == 25 * n
        assert raw[:n] == bytes((KIND_ALU, KIND_LOAD, KIND_BRANCH | 0x10,
                                 KIND_BRANCH))

        def column(i):
            start = n + 8 * n * i
            return [int.from_bytes(raw[at:at + 8], "little", signed=True)
                    for at in range(start, start + 8 * n, 8)]

        assert column(0) == [0x1000, 4, 4, 0x0800 - 0x1008]
        assert column(1) == [0, 0x9000_0008, 0, 0]
        assert column(2) == [0, 0, 0x0800, 0]
