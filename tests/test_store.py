"""The artifact plane: digest-sharded store, chunked transfer, quarantine.

The contract pinned here:

* :class:`repro.store.ArtifactStore` round-trips blobs through 2-hex
  shard dirs, rejects oversized blobs and claimed-digest mismatches,
  detects on-disk rot on every read (quarantine + poison, never wrong
  bytes), and a poisoned digest is never served *or* accepted again;
* chunked transfers are CRC-checked per chunk: a corrupted or truncated
  transfer reads as a *retryable* miss, an intact transfer whose bytes
  mismatch their digest quarantines locally and escalates a
  ``quarantine_notify`` so the coordinator poisons the digest
  fleet-wide;
* ``REPRO_STORE=fetch`` with shared-nothing workers (disjoint,
  initially-empty private caches) ends bit-identical to serial — with
  the ``corrupt_chunk`` / ``truncated_fetch`` faults firing, every
  damaged transfer ends in a counted retry or a quarantine, never a
  committed result;
* a shared-nothing worker ignores the coordinator's paths, and garbage
  frames count ``remote.protocol_errors`` instead of folding into
  disconnects.
"""

import json
import socket
import threading
import time
from pathlib import Path

import pytest

import repro.store as store_mod
from repro.exec.remote import (_ArtifactClient, _Worker, recv_msg,
                               send_msg, worker_main)
from repro.obs import metrics as metrics_mod
from repro.obs.runlog import iter_records
from repro.obs.stats import format_table, summarize
from repro.resilience import faults
from repro.resilience.integrity import IntegrityError, payload_digest
from repro.sim import presets
from repro.sim.experiments import ExperimentRunner
from repro.store import (CHUNK_BYTES, ArtifactStore, ArtifactUnavailable,
                         chunk_count, chunk_crc, decode_chunk,
                         default_store_mode, encode_chunk, iter_chunks)

APPS = ("bing", "pixlr")


def _pairs():
    return [(app, presets.by_name(name)) for name in ("baseline", "nl")
            for app in APPS]


@pytest.fixture(autouse=True)
def _own_coordinator(monkeypatch):
    """An ambient ``REPRO_COORD`` (the CI remote leg exports one) must
    not hand these tests' tasks to parked external workers, and an
    ambient ``REPRO_STORE`` must not flip the mode under assertion."""
    monkeypatch.delenv("REPRO_COORD", raising=False)
    monkeypatch.delenv("REPRO_STORE", raising=False)


@pytest.fixture
def recording_metrics():
    registry = metrics_mod.MetricsRegistry()
    previous = metrics_mod.set_registry(registry)
    yield registry
    metrics_mod.set_registry(previous)


@pytest.fixture
def no_faults():
    previous = faults.set_fault_plan(faults.FaultPlan())
    yield
    faults.set_fault_plan(previous)


class _WorkerPool:
    """In-process (thread) workers attached to a backend's ``on_bound``
    hook — same protocol as ``repro worker`` subprocesses, but
    deterministic to start and guaranteed to die with the test."""

    def __init__(self, backend, specs: list[dict]) -> None:
        self.stop = threading.Event()
        self.threads: list[threading.Thread] = []

        def on_bound(addr):
            coord = f"{addr[0]}:{addr[1]}"
            for spec in specs:
                kwargs = dict(in_process=True, stop_event=self.stop)
                kwargs.update(spec)

                def run(coord=coord, kwargs=kwargs):
                    worker_main(coord, **kwargs)

                thread = threading.Thread(target=run, daemon=True)
                thread.start()
                self.threads.append(thread)

        backend.self_host = False
        backend.on_bound = on_bound

    def close(self) -> None:
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=5.0)


# -- the store -----------------------------------------------------------------

class TestShardLayout:
    def test_round_trip_through_shard_dirs(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        data = b"trace bytes " * 100
        digest = store.put_bytes(data, "trace")
        assert digest == payload_digest(data)
        blob = tmp_path / "store" / digest[:2] / f"{digest}.trace"
        assert blob.is_file()
        assert store.get_bytes(digest, "trace") == data
        assert store.stat(digest, "trace") == {
            "exists": True, "size": len(data), "poisoned": False}
        # idempotent: a second put of the same bytes is a no-op hit
        assert store.put_bytes(data, "trace") == digest

    def test_miss_and_bad_claims(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.get_bytes("00" * 8, "trace") is None
        assert store.stat("00" * 8, "trace")["exists"] is False
        # a claimed digest that does not match the bytes is refused
        assert store.put_bytes(b"payload", "result",
                               digest="beef" * 4) is None

    def test_oversized_blob_refused(self, tmp_path, monkeypatch,
                                    recording_metrics):
        monkeypatch.setattr(store_mod, "MAX_ARTIFACT_BYTES", 64)
        store = ArtifactStore(tmp_path / "store")
        assert store.put_bytes(b"x" * 65, "trace") is None
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("store.oversized_rejected") == 1

    def test_rot_is_detected_quarantined_and_poisoned(self, tmp_path,
                                                      recording_metrics):
        """Bytes that no longer hash to their digest raise (never
        returned), the evidence is quarantined, and the digest is
        tombstoned against both reads and writes — forever."""
        store = ArtifactStore(tmp_path / "store",
                              tmp_path / "quarantine")
        data = b"checkpoint generation"
        digest = store.put_bytes(data, "ckpt")
        blob = tmp_path / "store" / digest[:2] / f"{digest}.ckpt"
        blob.write_bytes(b"rotted " + data)
        with pytest.raises(IntegrityError):
            store.get_bytes(digest, "ckpt")
        assert not blob.exists()  # moved aside, not deleted
        assert list((tmp_path / "quarantine").glob("*.quarantined"))
        assert store.is_poisoned(digest)
        assert store.get_bytes(digest, "ckpt") is None
        assert store.put_bytes(data, "ckpt") is None  # write refused too
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("store.verify_failures") == 1
        assert counters.get("store.poisoned") == 1
        assert counters.get("store.poisoned_rejected") == 1

    def test_store_mode_env_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert default_store_mode() == "shared"
        monkeypatch.setenv("REPRO_STORE", "fetch")
        assert default_store_mode() == "fetch"
        monkeypatch.setenv("REPRO_STORE", "nfs-please")
        with pytest.warns(RuntimeWarning):
            assert default_store_mode() == "shared"


class TestChunkHelpers:
    def test_chunk_count_edges(self):
        assert chunk_count(0) == 1  # even empty ships one CRC'd chunk
        assert chunk_count(1) == 1
        assert chunk_count(CHUNK_BYTES) == 1
        assert chunk_count(CHUNK_BYTES + 1) == 2

    def test_iter_chunks_reassembles(self):
        data = bytes(range(256)) * (CHUNK_BYTES // 100)
        parts = list(iter_chunks(data))
        assert [seq for seq, _, _ in parts] == list(range(len(parts)))
        assert all(total == len(parts) for _, total, _ in parts)
        assert b"".join(raw for _, _, raw in parts) == data

    def test_codec_and_garbage(self):
        raw = b"\x00\xffchunk"
        assert decode_chunk(encode_chunk(raw)) == raw
        assert decode_chunk("not!!base64##") is None
        assert decode_chunk(12345) is None
        assert chunk_crc(raw) == chunk_crc(raw)
        assert chunk_crc(raw) != chunk_crc(raw + b"x")


# -- the transfer protocol (scripted coordinator) ------------------------------

def _serve_fetch(sock, blobs, mutate=None):
    """A minimal coordinator side for one socket: serve ``artifact_get``
    from ``blobs`` (digest -> bytes), applying ``mutate(seq, frame)`` to
    each outgoing chunk frame; record every non-get frame received."""
    other = []

    def loop():
        while True:
            message = recv_msg(sock)
            if message is None:
                return
            if message.get("type") != "artifact_get":
                other.append(message)
                continue
            digest = message["digest"]
            data = blobs.get(digest)
            if data is None:
                send_msg(sock, {"type": "artifact_miss",
                                "digest": digest, "reason": "missing"})
                continue
            total = chunk_count(len(data))
            send_msg(sock, {"type": "artifact_data", "digest": digest,
                            "kind": "trace", "size": len(data),
                            "chunks": total})
            for seq, _t, raw in iter_chunks(data):
                frame = {"type": "artifact_chunk", "digest": digest,
                         "seq": seq, "total": total,
                         "data": encode_chunk(raw),
                         "crc": chunk_crc(raw)}
                if mutate is not None:
                    mutate(seq, frame)
                send_msg(sock, frame)

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    return other, thread


def _client(sock, store=None, fetch_strict=False):
    task = {"artifacts": {}, "checkpoint": None}
    return _ArtifactClient(sock, threading.Lock(), task, store,
                           metrics=metrics_mod.get_registry(),
                           fetch_strict=fetch_strict)


class TestChunkedFetch:
    def test_clean_fetch_warms_private_shard(self, tmp_path, no_faults,
                                             recording_metrics):
        a, b = socket.socketpair()
        data = b"espt" * (CHUNK_BYTES // 2)  # 2 chunks
        digest = payload_digest(data)
        other, thread = _serve_fetch(b, {digest: data})
        try:
            store = ArtifactStore(tmp_path / "store")
            client = _client(a, store)
            assert client.fetch(digest, "trace") == data
            # the private shard was warmed: a re-read needs no socket
            assert store.get_bytes(digest, "trace") == data
        finally:
            a.close()
            b.close()
            thread.join(timeout=2.0)
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("store.fetched") == 1
        assert counters.get("store.chunks_fetched") == 2
        assert counters.get("store.bytes_fetched") == len(data)

    def test_corrupt_chunk_is_retried_then_succeeds(self, tmp_path,
                                                    no_faults,
                                                    recording_metrics):
        """A chunk whose payload does not match its CRC is transport
        damage: the whole fetch retries (with backoff) and the second,
        clean attempt lands — damage never reads as data."""
        a, b = socket.socketpair()
        data = b"x" * 4096
        digest = payload_digest(data)
        attempts = []

        def mutate(seq, frame):
            if not attempts:  # first fetch only: flip a payload byte
                raw = bytearray(decode_chunk(frame["data"]))
                raw[0] ^= 0x40
                frame["data"] = encode_chunk(bytes(raw))
                attempts.append("damaged")

        other, thread = _serve_fetch(b, {digest: data}, mutate)
        try:
            client = _client(a, ArtifactStore(tmp_path / "store"))
            assert client.fetch(digest, "trace") == data
        finally:
            a.close()
            b.close()
            thread.join(timeout=2.0)
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("store.chunk_crc_failures") == 1
        assert counters.get("store.fetch_retries") == 1
        assert counters.get("store.digest_mismatch", 0) == 0

    def test_digest_mismatch_quarantines_and_notifies(self, tmp_path,
                                                      no_faults,
                                                      recording_metrics):
        """An intact transfer (every CRC fine) whose assembled bytes
        hash wrong is content corruption: the client quarantines the
        bytes, poisons its private shard, and sends ``quarantine_notify``
        — and never returns the bytes."""
        a, b = socket.socketpair()
        data = b"wrong bytes entirely"
        digest = payload_digest(b"the right bytes")
        other, thread = _serve_fetch(b, {digest: data})
        try:
            store = ArtifactStore(tmp_path / "store",
                                  tmp_path / "quarantine")
            client = _client(a, store)
            assert client.fetch(digest, "trace") is None
            deadline = time.monotonic() + 2.0
            while not other and time.monotonic() < deadline:
                time.sleep(0.01)
            assert other and other[0]["type"] == "quarantine_notify"
            assert other[0]["digest"] == digest
            assert store.is_poisoned(digest)
            assert list((tmp_path / "quarantine")
                        .glob(f"fetch-{digest}*"))
        finally:
            a.close()
            b.close()
            thread.join(timeout=2.0)
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("store.digest_mismatch") == 1
        # content corruption is permanent: no pointless retries
        assert counters.get("store.fetch_retries", 0) == 0

    def test_miss_is_permanent_and_strict_mode_raises(self, tmp_path,
                                                      no_faults):
        a, b = socket.socketpair()
        other, thread = _serve_fetch(b, {})
        try:
            client = _client(a, None)
            assert client.fetch("00" * 8, "trace") is None
            strict = _client(a, None, fetch_strict=True)
            with pytest.raises(ArtifactUnavailable):
                strict.materialize_trace("bing", tmp_path / "t.espt")
        finally:
            a.close()
            b.close()
            thread.join(timeout=2.0)

    def test_truncated_fetch_fault_reads_as_retryable_miss(
            self, tmp_path, recording_metrics):
        """The injected ``truncated_fetch`` fault drops tail chunks on
        the worker side (frames still drained, framing stays in sync):
        the short assembly fails the size check, retries draw fresh, and
        once the fault stops firing the fetch lands intact."""
        previous = faults.set_fault_plan(
            faults.FaultPlan({"truncated_fetch": 1.0}, seed=3))
        a, b = socket.socketpair()
        data = b"y" * (CHUNK_BYTES + 10)  # 2 chunks
        digest = payload_digest(data)
        other, thread = _serve_fetch(b, {digest: data})
        try:
            client = _client(a, None)
            got = client.fetch(digest, "trace")
            # rate 1.0: every attempt truncates — unless the seeded cut
            # point landed past the last chunk on some attempt. Either
            # a clean assembly or an exhausted fetch is legal; damaged
            # bytes are not.
            assert got in (data, None)
        finally:
            faults.set_fault_plan(previous)
            a.close()
            b.close()
            thread.join(timeout=2.0)
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("faults.truncated_fetch", 0) >= 1
        assert counters.get("store.fetch_retries", 0) >= 1
        assert counters.get("store.digest_mismatch", 0) == 0


class TestPoisonedNeverReServed:
    def test_coordinator_side_poison_blocks_future_serves(self,
                                                          tmp_path,
                                                          no_faults):
        """Quarantine propagation, store side: once poisoned, a digest
        is a permanent miss for reads and a rejection for writes, across
        store instances (the tombstone is on disk)."""
        store = ArtifactStore(tmp_path / "store")
        data = b"poisoned artifact"
        digest = store.put_bytes(data, "trace")
        store.poison(digest, "reported by worker-2")
        assert store.get_bytes(digest, "trace") is None
        reopened = ArtifactStore(tmp_path / "store")
        assert reopened.get_bytes(digest, "trace") is None
        assert reopened.put_bytes(data, "trace") is None
        assert reopened.stat(digest, "trace")["poisoned"] is True


# -- shared-nothing fleets (full stack) ----------------------------------------

class TestSharedNothingFleet:
    def _run_fetch_grid(self, tmp_path, *, log_dir=None,
                        checkpoint_events=0):
        runner = ExperimentRunner(
            cache_dir=tmp_path / "coord", scale=0.1, seed=0,
            backend="remote", log_dir=log_dir,
            checkpoint_events=checkpoint_events)
        backend = runner._resolve_backend()
        backend.store_mode = "fetch"
        backend.wait_s = 30.0
        pool = _WorkerPool(backend, [
            {"no_shared_fs": True, "cache_dir": tmp_path / "w1",
             "exit_on_disconnect": True},
            {"no_shared_fs": True, "cache_dir": tmp_path / "w2",
             "exit_on_disconnect": True},
        ])
        try:
            got = [r.to_dict() for r in runner.run_many(_pairs())]
        finally:
            pool.close()
        return runner, got

    def test_two_empty_private_caches_bit_identical_to_serial(
            self, tmp_path, no_faults, recording_metrics):
        """The acceptance headline: two workers on disjoint, initially
        empty cache dirs complete the campaign bit-identical to serial,
        resolving every trace miss through the artifact plane — zero
        digest mismatches, zero local regenerations."""
        serial = ExperimentRunner(cache_dir=tmp_path / "serial",
                                  scale=0.1, seed=0, backend="serial")
        reference = [r.to_dict() for r in serial.run_many(_pairs())]
        runner, got = self._run_fetch_grid(tmp_path)
        assert got == reference
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("store.fetched", 0) >= 1
        assert counters.get("store.fetches_served", 0) >= 1
        assert counters.get("store.trace_fetched", 0) >= 1
        assert counters.get("remote.digest_mismatch", 0) == 0
        assert counters.get("store.digest_mismatch", 0) == 0
        # the workers really lived in their own caches: fetched traces
        # landed there, and the coordinator's shard dir was populated
        fetched = [p for w in ("w1", "w2")
                   for p in (tmp_path / w).glob("*/traces/*.espt")]
        assert fetched
        assert list((tmp_path / "coord" / "store").glob("*/*.trace"))

    def test_chaos_storm_transfer_faults_never_commit_damage(
            self, tmp_path, recording_metrics):
        """Heavy ``corrupt_chunk`` + ``truncated_fetch`` on the plane:
        every damaged transfer ends in a counted retry (or a regen
        fallback) and the campaign still lands bit-identical — never a
        committed result built from damaged bytes."""
        previous = faults.set_fault_plan(faults.FaultPlan(
            {"corrupt_chunk": 0.4, "truncated_fetch": 0.4}, seed=4))
        try:
            serial = ExperimentRunner(cache_dir=tmp_path / "serial",
                                      scale=0.1, seed=0,
                                      backend="serial")
            reference = [r.to_dict() for r in serial.run_many(_pairs())]
            log_dir = tmp_path / "logs"
            runner, got = self._run_fetch_grid(tmp_path, log_dir=log_dir)
        finally:
            faults.set_fault_plan(previous)
        assert got == reference
        counters = recording_metrics.snapshot()["counters"]
        fired = counters.get("faults.corrupt_chunk", 0) \
            + counters.get("faults.truncated_fetch", 0)
        assert fired >= 1
        # damage surfaced as transport-layer retries, not as content
        assert counters.get("store.chunk_crc_failures", 0) \
            + counters.get("store.fetch_retries", 0) >= 1
        assert counters.get("remote.digest_mismatch", 0) == 0
        summary = summarize(iter_records(log_dir))
        assert summary["store_fetches"] >= 1
        assert "store — artifacts served:" in format_table(summary)

    def test_fetch_serves_and_logs_checkpoint_mirroring(
            self, tmp_path, no_faults, recording_metrics):
        """With checkpointing on, shared-nothing workers push their
        generations back through the plane (best-effort) and the
        coordinator indexes them for steals."""
        serial = ExperimentRunner(cache_dir=tmp_path / "serial",
                                  scale=0.1, seed=0, backend="serial")
        reference = [r.to_dict() for r in serial.run_many(_pairs())]
        runner, got = self._run_fetch_grid(tmp_path,
                                           checkpoint_events=40)
        assert got == reference
        counters = recording_metrics.snapshot()["counters"]
        if counters.get("store.pushed", 0):
            assert counters.get("store.puts_accepted", 0) >= 1
            assert list(
                (tmp_path / "coord" / "store").glob("*/*.ckpt"))


# -- satellites ----------------------------------------------------------------

class TestRunnerMemoKey:
    def test_fidelity_splits_the_memo(self, tmp_path):
        """A parked worker serving a full and a sampled campaign keeps
        one runner clone per fidelity; the frame's explicit field is
        all it reads."""
        worker = _Worker("127.0.0.1:1", in_process=True)
        base = {"cache_dir": str(tmp_path), "scale": 0.1, "seed": 0,
                "use_disk_cache": True, "checkpoint_events": 0,
                "store": "shared"}
        full = worker._runner_for(dict(base, fidelity="full"))
        sampled = worker._runner_for(dict(base, fidelity="sampled"))
        assert full is not sampled
        assert (full.fidelity, sampled.fidelity) == ("full", "sampled")
        assert worker._runner_for(dict(base, fidelity="full")) is full
        # a garbage value degrades to full detail, never crashes
        assert worker._runner_for(
            dict(base, fidelity="warp-drive")).fidelity == "full"

    def test_no_shared_fs_ignores_coordinator_paths(self, tmp_path):
        worker = _Worker("127.0.0.1:1", in_process=True,
                         no_shared_fs=True,
                         cache_dir=tmp_path / "private")
        runner = worker._runner_for(
            {"cache_dir": "/nonexistent/coordinator/cache",
             "scale": 0.1, "seed": 0, "use_disk_cache": True,
             "checkpoint_events": 0, "store": "shared",
             "log_dir": "/nonexistent/logs"})
        # campaign-scoped private subdir, never the coordinator's path
        assert Path(runner.cache_dir).parent == tmp_path / "private"
        # the coordinator's log dir is equally untrusted (ambient
        # metrics may arm a private default log dir — that's fine)
        if runner._runlog.enabled:
            assert not str(runner._runlog.log_dir).startswith(
                "/nonexistent")


class TestProtocolErrors:
    def test_garbage_frames_count_protocol_errors(self,
                                                  recording_metrics):
        a, b = socket.socketpair()
        try:
            # oversized length prefix
            a.sendall((1 << 30).to_bytes(4, "big"))
            assert recv_msg(b) is None
            a.close()
        finally:
            b.close()
        c, d = socket.socketpair()
        try:
            body = b"{not json"
            c.sendall(len(body).to_bytes(4, "big") + body)
            assert recv_msg(d) is None
            body = json.dumps([1, 2]).encode()
            c.sendall(len(body).to_bytes(4, "big") + body)
            assert recv_msg(d) is None
        finally:
            c.close()
            d.close()
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("remote.protocol_errors") == 3

    def test_plain_disconnects_stay_uncounted(self, recording_metrics):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x10short")  # torn frame
            a.close()
            assert recv_msg(b) is None
            assert recv_msg(b) is None  # EOF
        finally:
            b.close()
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("remote.protocol_errors", 0) == 0

    def test_unknown_frame_type_is_counted_not_fatal(self, tmp_path,
                                                     no_faults,
                                                     recording_metrics):
        """A live coordinator receiving an unknown frame type counts it
        and keeps serving the same connection."""
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  backend="remote")
        backend = runner._resolve_backend()
        backend.wait_s = 8.0
        seen = {}

        def on_bound(addr):
            sock = socket.create_connection(addr, timeout=5.0)
            try:
                send_msg(sock, {"type": "hello", "pid": 0, "host": "t"})
                assert recv_msg(sock)["type"] == "welcome"
                send_msg(sock, {"type": "definitely-not-a-frame"})
                send_msg(sock, {"type": "request"})
                grant = recv_msg(sock)
                seen["grant"] = grant and grant.get("type")
            finally:
                sock.close()

        # the probe socket runs first, then one real worker finishes
        # the batch so run_many terminates
        worker_stop = threading.Event()

        def probe_then_work(addr):
            on_bound(addr)
            threading.Thread(
                target=worker_main,
                args=(f"{addr[0]}:{addr[1]}",),
                kwargs=dict(in_process=True, exit_on_disconnect=True,
                            stop_event=worker_stop),
                daemon=True).start()

        backend.self_host = False
        backend.on_bound = probe_then_work
        try:
            results = runner.run_many([("bing", presets.baseline())])
        finally:
            worker_stop.set()
        assert results[0].instructions > 0
        assert seen["grant"] == "task"  # the connection survived
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("remote.protocol_errors", 0) >= 1


class TestReleasePath:
    def test_release_requeues_the_lease(self, tmp_path, no_faults,
                                        recording_metrics):
        """A worker that cannot obtain a required artifact hands its
        lease back with ``release``; the coordinator requeues the task
        (attempt 2) instead of failing the batch."""
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  backend="remote")
        backend = runner._resolve_backend()
        backend.wait_s = 8.0
        seen = {}
        worker_stop = threading.Event()

        def on_bound(addr):
            sock = socket.create_connection(addr, timeout=5.0)
            try:
                send_msg(sock, {"type": "hello", "pid": 0, "host": "t"})
                recv_msg(sock)
                send_msg(sock, {"type": "request"})
                task = recv_msg(sock)
                assert task["type"] == "task"
                send_msg(sock, {"type": "release",
                                "task_id": task["task_id"],
                                "key": task["key"],
                                "reason": "artifact-unavailable"})
                send_msg(sock, {"type": "request"})
                again = recv_msg(sock)
                seen["attempt"] = again.get("attempt")
                send_msg(sock, {"type": "goodbye"})
            finally:
                sock.close()
            threading.Thread(
                target=worker_main,
                args=(f"{addr[0]}:{addr[1]}",),
                kwargs=dict(in_process=True, exit_on_disconnect=True,
                            stop_event=worker_stop),
                daemon=True).start()

        backend.self_host = False
        backend.on_bound = on_bound
        try:
            results = runner.run_many([("bing", presets.baseline())])
        finally:
            worker_stop.set()
        assert results[0].instructions > 0
        assert seen["attempt"] == 2  # released, re-leased fresh
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("remote.releases") == 1
        # one steal for the release, plus one when the probe socket
        # disconnects still holding its second lease
        assert counters.get("remote.steals", 0) >= 1
