"""Remote execution backend: TCP coordinator + lease-based work-stealing.

``REPRO_BACKEND=remote`` turns one ``run_many`` batch into a small
distributed campaign. The parent binds a coordinator socket (the
``REPRO_COORD`` address, or an ephemeral localhost port when unset) and
``repro worker`` processes — on this machine or any host that can reach
the coordinator — connect, pull tasks, and stream results back. The
design assumes the network is *unreliable* and degrades instead of
wedging:

* **Length-prefixed JSON protocol.** Every message is a 4-byte big-endian
  length followed by one UTF-8 JSON object; a torn or truncated frame
  reads as a disconnect, never as a garbled message.
* **Time-bounded leases.** A task is handed out under a lease of
  ``REPRO_LEASE_S`` seconds, renewed by worker heartbeats and judged
  monotonic-against-monotonic (the same discipline as the §9 watchdog —
  NTP steps neither expire healthy leases nor spare dead ones, both
  stamps coming from the coordinator's own clock). A lease whose
  heartbeats stop is **stolen**: the task is requeued to a live worker,
  counted (``remote.steals``) and logged (``steal`` records). A worker
  disconnect steals its leases immediately.
* **At-most-once commits.** Results arrive digest-tagged; the first
  verified result for a key is committed through the runner's digest-
  enveloped result cache and every later delivery of the same key is a
  no-op (``remote.dup_results``) — the legitimate outcome of a steal
  whose original worker survived. A *mismatched* digest (a worker
  returning different bytes for the same pure task) is quarantined, not
  committed.
* **Capped full-jitter reconnects.** Workers reconnect with exponential
  backoff and full jitter (:func:`repro.exec.base.jittered_backoff`,
  seeded from the worker token) so a restarted coordinator is not
  thundering-herded by its own fleet. A coordinator's ``shutdown`` at
  batch end sends a parked ``repro worker`` back to this connect loop —
  one long-lived pair can serve every batch a campaign binds on the
  address — while ``--exit-on-disconnect`` workers (the self-hosted
  kind) terminate instead.
* **Graceful degradation.** No workers within ``REPRO_REMOTE_WAIT``
  seconds — at batch start or after losing the whole fleet mid-batch —
  and the remaining tasks fall back to the auto-picked local backend
  (:func:`repro.exec.auto.auto_pick`) instead of failing the
  campaign. A coordinator that cannot even bind degrades the same way.
  Tasks a worker *errored* on are handed to the runner's serial retry
  ladder, which owns the attempt budget, exactly as on every other
  backend.

* **A content-addressed artifact plane.** With ``REPRO_STORE=fetch``
  (or ``repro worker --no-shared-fs``) workers stop assuming the
  coordinator's filesystem: task frames carry artifact *digests*
  instead of relying on a shared ``cache_dir``, and workers resolve
  cache misses over the same socket — ``artifact_stat`` /
  ``artifact_get`` / ``artifact_put`` frames with chunked, per-chunk-CRC
  transfer backed by the digest-sharded
  :class:`~repro.store.ArtifactStore`. A torn transfer reads as a
  retryable miss; an intact transfer whose bytes mismatch their digest
  is quarantined on the receiving side and escalated with a
  ``quarantine_notify`` frame so the coordinator poisons that digest
  fleet-wide instead of re-serving it. A worker that cannot obtain a
  required artifact sends ``release`` — its lease is requeued for
  stealing rather than the batch failing — and ``REPRO_STORE=shared``
  (the default) preserves the shared-filesystem behaviour bit-for-bit.

With no ``REPRO_COORD`` set the backend **self-hosts**: it binds an
ephemeral localhost port and spawns its own ``repro worker``
subprocesses for the batch, so ``REPRO_BACKEND=remote`` works with zero
setup while still exercising the full socket path. The deterministic
fault plan (:mod:`repro.resilience.faults`) injects the network's
failure modes — ``drop_conn``, ``slow_socket``, ``dup_result``,
``stale_lease``, plus the artifact plane's ``corrupt_chunk`` /
``truncated_fetch`` / ``slow_fetch`` — through these same code paths
for the chaos suite.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

from repro.exec.base import (DEADLINE_POLL_S, ExecutionBackend,
                             jittered_backoff)
from repro.obs.metrics import get_registry
from repro.resilience import config_from_dict, config_to_dict, wrap_result
from repro.resilience.faults import get_fault_plan
from repro.resilience.integrity import (IntegrityError, canonical_json,
                                        payload_digest)
from repro.sim.results import SimResult
from repro.store import (MAX_ARTIFACT_BYTES, ArtifactStore,
                         ArtifactUnavailable, chunk_count, chunk_crc,
                         decode_chunk, default_store_mode, encode_chunk,
                         iter_chunks)

_COORD_ENV = "REPRO_COORD"
_LEASE_ENV = "REPRO_LEASE_S"
_WAIT_ENV = "REPRO_REMOTE_WAIT"

#: default lease duration (seconds) — heartbeats renew well inside it
DEFAULT_LEASE_S = 10.0

#: default wait for a first worker (or a fleet rebuild) before degrading
DEFAULT_WAIT_S = 10.0

#: how long an idle worker sleeps between task requests
WORKER_IDLE_POLL_S = 0.2

#: worker reconnect backoff: base delay and jitter ceiling (seconds)
RECONNECT_BASE_S = 0.05
RECONNECT_CAP_S = 2.0

#: a task stolen this many times stops being requeued and is handed to
#: the serial retry ladder instead — steals must converge, not ping-pong
MAX_STEALS_PER_TASK = 5

#: frames above this size are treated as a protocol violation (a result
#: payload is a few KB, an artifact chunk a few hundred; this is
#: corruption/abuse, not data)
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: runlog records one result frame carries back from a shared-nothing
#: worker (~200 bytes each; the tail beyond this is dropped, keeping the
#: frame far under MAX_FRAME_BYTES even for checkpoint-per-event runs)
MAX_FORWARDED_RECORDS = 10_000

#: attempts one worker makes at fetching one artifact before giving up
#: (each retry rides the capped full-jitter backoff)
FETCH_ATTEMPTS = 3

_HEADER = struct.Struct(">I")


def _env_float(name: str, default: float) -> float:
    """A positive float env knob with the harness's usual degrade-don't-
    crash behaviour (malformed or non-positive values fall back)."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def default_lease_s() -> float:
    """Lease duration from ``REPRO_LEASE_S`` (default 10s)."""
    return _env_float(_LEASE_ENV, DEFAULT_LEASE_S)


def default_wait_s() -> float:
    """Worker-wait budget from ``REPRO_REMOTE_WAIT`` (default 10s)."""
    return _env_float(_WAIT_ENV, DEFAULT_WAIT_S)


def parse_addr(spec: str) -> tuple[str, int]:
    """Parse ``host:port`` (bare ``:port`` and ``port`` mean localhost).

    Raises ``ValueError`` on anything that cannot name a TCP endpoint.
    """
    spec = (spec or "").strip()
    if not spec:
        raise ValueError("empty coordinator address")
    host, sep, port = spec.rpartition(":")
    if not sep:
        host, port = "", spec
    host = host.strip() or "127.0.0.1"
    return host, int(port)


# -- framing -------------------------------------------------------------------

def send_msg(sock: socket.socket, message: dict,
             lock: threading.Lock | None = None) -> None:
    """Send one length-prefixed JSON frame (atomic under ``lock`` so a
    heartbeat thread and the task loop never interleave bytes)."""
    body = json.dumps(message, separators=(",", ":")).encode()
    frame = _HEADER.pack(len(body)) + body
    if lock is not None:
        with lock:
            sock.sendall(frame)
    else:
        sock.sendall(frame)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None  # EOF mid-frame: a disconnect, not a message
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> dict | None:
    """Receive one frame; ``None`` means the peer is gone (EOF, reset,
    torn frame, or a frame that is not a JSON object).

    A plain EOF or torn frame is churn and stays a silent disconnect;
    an absurd length prefix, undecodable JSON, or a non-object body is
    corruption (or protocol skew) and counts ``remote.protocol_errors``
    so fleet debugging can tell the two apart.
    """
    try:
        header = _recv_exact(sock, _HEADER.size)
        if header is None:
            return None
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            get_registry().inc("remote.protocol_errors")
            return None
        body = _recv_exact(sock, length)
        if body is None:
            return None
    except OSError:
        return None
    try:
        message = json.loads(body)
    except ValueError:
        get_registry().inc("remote.protocol_errors")
        return None
    if not isinstance(message, dict):
        get_registry().inc("remote.protocol_errors")
        return None
    return message


# -- coordinator ---------------------------------------------------------------

class _Lease:
    """One outstanding task grant: who holds it and until when."""

    __slots__ = ("worker", "key", "app", "attempt", "start", "deadline")

    def __init__(self, worker: int, key: str, app: str, attempt: int,
                 now: float, lease_s: float) -> None:
        self.worker = worker
        self.key = key
        self.app = app
        self.attempt = attempt
        self.start = now
        self.deadline = now + lease_s


class _Coordinator:
    """The parent-side server for one batch: queue, leases, commits.

    All state is guarded by one lock; connection handler threads mutate
    it through the message handlers, and the batch thread drives
    :meth:`sweep` / :meth:`finished` / :meth:`should_degrade`.
    """

    def __init__(self, runner, todo, results, progress,
                 lease_s: float, wait_s: float,
                 store_mode: str = "shared",
                 store: ArtifactStore | None = None) -> None:
        self.runner = runner
        self.results = results
        self.progress = progress
        self.lease_s = lease_s
        self.wait_s = wait_s
        self.store_mode = store_mode
        self.store = store
        self.metrics = get_registry()
        #: app -> trace digest (or None), memoized per batch
        self._trace_digests: dict[str, str | None] = {}
        #: task key -> (ckpt digest, position) of the newest pushed
        #: checkpoint, so a stolen task resumes on another worker
        self._ckpt_index: dict[str, tuple[str, int]] = {}
        self._lock = threading.Lock()
        self._tasks = {key: (index, key, app, config)
                       for index, (key, app, config) in enumerate(todo)}
        self._queue: deque[str] = deque(key for key, _, _ in todo)
        self._attempts: dict[str, int] = {}
        self._steals: dict[str, int] = {}
        self._leases: dict[str, _Lease] = {}  # task_id -> lease
        self._committed: dict[str, str] = {}  # key -> payload digest
        self._handed_back: set[str] = set()
        self._workers: dict[int, socket.socket] = {}
        self._next_worker_id = 1
        self._started = time.monotonic()
        self._last_worker = None  # monotonic stamp of last live worker
        self._ever_had_worker = False
        self._closing = False
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self.addr: tuple[str, int] | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self, host: str, port: int) -> tuple[str, int]:
        """Bind, listen, and start accepting workers; returns the bound
        address (the real port when ``port`` was 0)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, port))
            listener.listen(32)
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self.addr = listener.getsockname()[:2]
        thread = threading.Thread(target=self._accept_loop,
                                  name="repro-coord-accept", daemon=True)
        thread.start()
        self._threads.append(thread)
        return self.addr

    def close(self) -> None:
        """Stop accepting, drop every worker connection, join handlers."""
        with self._lock:
            self._closing = True
            workers = list(self._workers.values())
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass  # teardown: the listener may already be gone
        for conn in workers:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # teardown: peer may have hung up first
            try:
                conn.close()
            except OSError:
                pass  # teardown: double-close is harmless
        for thread in self._threads:
            thread.join(timeout=2.0)

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed: batch over
            with self._lock:
                if self._closing:
                    conn.close()
                    return
            thread = threading.Thread(
                target=self._serve_worker, args=(conn, addr),
                name="repro-coord-conn", daemon=True)
            thread.start()
            self._threads.append(thread)

    # -- per-connection handler ------------------------------------------------

    def _serve_worker(self, conn: socket.socket, addr) -> None:
        worker_id = None
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # latency tweak only; some transports lack the option
        try:
            hello = recv_msg(conn)
            if not hello or hello.get("type") != "hello":
                return
            with self._lock:
                if self._closing:
                    return
                worker_id = self._next_worker_id
                self._next_worker_id += 1
                self._workers[worker_id] = conn
                self._last_worker = time.monotonic()
                self._ever_had_worker = True
            self.metrics.inc("remote.workers_joined")
            self.runner._note_worker_join(worker_id, hello, addr)
            send_msg(conn, {"type": "welcome", "worker": worker_id,
                            "lease_s": self.lease_s,
                            "poll_s": WORKER_IDLE_POLL_S})
            while True:
                message = recv_msg(conn)
                if message is None:
                    return
                kind = message.get("type")
                if kind == "request":
                    send_msg(conn, self._grant(worker_id))
                elif kind == "heartbeat":
                    self._renew(worker_id, message.get("task_id"))
                elif kind == "result":
                    committed = self._commit(worker_id, message)
                    send_msg(conn, {"type": "ack",
                                    "committed": committed})
                elif kind == "error":
                    self._task_errored(worker_id, message)
                    send_msg(conn, {"type": "ack", "committed": False})
                elif kind == "artifact_stat":
                    send_msg(conn, self._artifact_stat(message))
                elif kind == "artifact_get":
                    self._artifact_send(conn, message)
                elif kind == "artifact_put":
                    reply = self._artifact_recv(conn, worker_id, message)
                    if reply is None:
                        return  # unrecoverable framing violation
                    send_msg(conn, reply)
                elif kind == "quarantine_notify":
                    self._poison_notified(worker_id, message)
                elif kind == "release":
                    self._release(worker_id, message)
                elif kind == "goodbye":
                    return
                else:
                    # an unknown frame type is corruption or version
                    # skew, not churn: counted, then ignored
                    self.metrics.inc("remote.protocol_errors")
        except OSError:
            pass  # the socket died mid-exchange: treated as a leave
        finally:
            try:
                conn.close()
            except OSError:
                pass  # connection already torn down by the peer
            if worker_id is not None:
                self._worker_left(worker_id)

    # -- message handlers (state under the lock) -------------------------------

    def _grant(self, worker_id: int) -> dict:
        """The reply to one task request: a leased task, ``idle`` while
        work is outstanding elsewhere, or ``shutdown`` once the batch is
        settled."""
        runner = self.runner
        granted = None
        with self._lock:
            while self._queue:
                key = self._queue.popleft()
                if key in self._committed or key in self._handed_back:
                    continue  # settled while it sat requeued
                index, _, app, config = self._tasks[key]
                attempt = self._attempts.get(key, 0) + 1
                self._attempts[key] = attempt
                task_id = f"{key}#a{attempt}"
                self._leases[task_id] = _Lease(
                    worker_id, key, app, attempt, time.monotonic(),
                    self.lease_s)
                granted = (task_id, key, app, config, attempt, index)
                ckpt = self._ckpt_index.get(key)
                break
            else:
                done = self._finished_locked()
        if granted is None:
            return {"type": "shutdown"} if done \
                else {"type": "idle", "poll_s": WORKER_IDLE_POLL_S}
        # frame assembly (possibly file IO for the trace-digest import)
        # happens outside the lock so a slow disk never stalls commits
        task_id, key, app, config, attempt, index = granted
        self.metrics.inc("remote.leases_granted")
        log_dir = str(runner._runlog.log_dir) \
            if runner._runlog.enabled else None
        message = {
            "type": "task", "task_id": task_id, "key": key,
            "app": app, "config": config_to_dict(config),
            "attempt": attempt, "index": index,
            "scale": runner.scale, "seed": runner.seed,
            "cache_dir": str(runner.cache_dir),
            "use_disk_cache": runner.use_disk_cache,
            "log_dir": log_dir,
            "checkpoint_events": runner.checkpoint_events,
            "lease_s": self.lease_s,
            "store": self.store_mode,
            # explicit, not env-derived: the worker recomputes cache keys
            # from this frame, and sampled/full results must never collide
            "fidelity": runner.fidelity,
        }
        if self.store_mode == "fetch":
            artifacts = {}
            digest = self._trace_digest(app)
            if digest is not None:
                artifacts["trace"] = {
                    "digest": digest,
                    "name": runner._trace_path(app).name}
            message["artifacts"] = artifacts
            if ckpt is not None:
                message["checkpoint"] = {"digest": ckpt[0],
                                         "position": ckpt[1]}
        return message

    def _renew(self, worker_id: int, task_id) -> None:
        with self._lock:
            lease = self._leases.get(task_id)
            if lease is not None and lease.worker == worker_id:
                lease.deadline = time.monotonic() + self.lease_s

    def _commit(self, worker_id: int, message: dict) -> bool:
        """At-most-once result commit, verified by digest.

        The first verified payload for a key wins; later deliveries —
        steal survivors, injected duplicates — are no-ops. A payload
        whose digest does not match its own body, or that disagrees with
        an already-committed digest for the key, is quarantined (written
        aside for inspection) and never committed.
        """
        key = message.get("key", "")
        task_id = message.get("task_id")
        payload = message.get("payload")
        claimed = message.get("digest", "")
        if not isinstance(payload, dict) or key not in self._tasks:
            return False
        actual = payload_digest(canonical_json(payload))
        with self._lock:
            # the result settles every outstanding lease on this key —
            # including one held by a different worker after a steal
            for tid in [tid for tid, lease in self._leases.items()
                        if lease.key == key]:
                if tid == task_id or key in self._committed \
                        or actual == claimed:
                    self._leases.pop(tid, None)
            committed = self._committed.get(key)
        app = self._tasks[key][2]
        if actual != claimed:
            self._quarantine_payload(key, payload,
                                     f"frame digest {claimed!r} != "
                                     f"computed {actual!r}")
            return False
        if committed is not None:
            if committed != actual:
                self._quarantine_payload(
                    key, payload,
                    f"duplicate disagrees with committed digest "
                    f"{committed!r}")
                return False
            self.metrics.inc("remote.dup_results")
            return False
        try:
            result = SimResult.from_dict(payload)
        except (TypeError, ValueError, KeyError):
            self._quarantine_payload(key, payload, "undeserialisable")
            return False
        runner = self.runner
        with self._lock:
            if key in self._committed:  # raced with a twin delivery
                self.metrics.inc("remote.dup_results")
                return False
            self._committed[key] = actual
            runner._memory[key] = result
            self.results[key] = result
        runner._store(key, result)
        self.metrics.inc("remote.commits")
        self._absorb_runlog(message.get("runlog"))
        self.progress.advance(note=app)
        return True

    def _absorb_runlog(self, records) -> None:
        """Append runlog records a shared-nothing worker forwarded with
        its result (its private log dir is unreachable, so observability
        rides the result frame). Only the first commit reaches here, so
        duplicate deliveries cannot double-log."""
        runner = self.runner
        if not isinstance(records, list) or not runner._runlog.enabled:
            return
        for record in records[:MAX_FORWARDED_RECORDS]:
            if isinstance(record, dict):
                runner._runlog.write(record)

    def _quarantine_payload(self, key: str, payload: dict,
                            reason: str) -> None:
        """Write a rejected remote payload into the quarantine directory
        (never silently dropped) and account for it."""
        self.metrics.inc("remote.digest_mismatch")
        runner = self.runner
        dest_name = None
        try:
            qdir = Path(runner.quarantine_dir)
            qdir.mkdir(parents=True, exist_ok=True)
            dest = qdir / (f"remote-{key}.{os.getpid()}-"
                           f"{time.monotonic_ns()}.quarantined")
            dest.write_text(json.dumps(
                {"reason": reason, "payload": payload}, sort_keys=True))
            dest_name = dest.name
        except OSError as exc:
            # the forensic copy could not land (disk full, permissions):
            # the payload is still rejected, but losing the evidence
            # silently would hide a sick quarantine volume — account for
            # it so operators see the drop
            self.metrics.inc("remote.quarantine_write_failed")
            write_error = f"{type(exc).__name__}: {exc}"
        else:
            write_error = None
        if runner._runlog.enabled:
            record = {
                "kind": "corrupt", "ts": round(time.time(), 3),
                "artifact": "remote-result", "path": f"remote-{key}",
                "quarantined": dest_name, "key": key,
                "app": self._tasks[key][2], "pid": os.getpid()}
            if write_error is not None:
                record["quarantine_write_failed"] = write_error
            runner._runlog.write(record)

    # -- artifact plane (fetch mode) -------------------------------------------

    def _trace_digest(self, app: str) -> str | None:
        """Digest of the app's recorded trace, importing the trace file
        into the store shard on first use (memoized per batch). None
        when the trace is unavailable — the worker regenerates locally,
        which is slower but still bit-identical."""
        if app in self._trace_digests:
            return self._trace_digests[app]
        digest = None
        if self.store is not None and self.runner.use_disk_cache:
            path = self.runner._trace_path(app)
            if path.exists():
                digest = self.store.import_file(path, "trace")
        self._trace_digests[app] = digest
        return digest

    def _artifact_stat(self, message: dict) -> dict:
        digest = str(message.get("digest") or "")
        kind = str(message.get("kind") or "")
        if not digest or kind not in ArtifactStore.KINDS \
                or self.store is None:
            self.metrics.inc("remote.protocol_errors")
            return {"type": "artifact_info", "digest": digest,
                    "exists": False, "size": 0, "poisoned": False}
        info = self.store.stat(digest, kind)
        return {"type": "artifact_info", "digest": digest, **info}

    def _artifact_send(self, conn: socket.socket, message: dict) -> None:
        """Serve one ``artifact_get``: a ``artifact_data`` head frame
        followed by CRC-stamped chunks, or an ``artifact_miss``. The
        coordinator's own copy is re-verified on read; one that rotted
        is poisoned here and reported as a miss, never served."""
        digest = str(message.get("digest") or "")
        kind = str(message.get("kind") or "")

        def miss(reason: str) -> None:
            send_msg(conn, {"type": "artifact_miss", "digest": digest,
                            "reason": reason})

        if not digest or kind not in ArtifactStore.KINDS:
            self.metrics.inc("remote.protocol_errors")
            miss("bad-request")
            return
        if self.store is None:
            miss("no-store")
            return
        try:
            data = self.store.get_bytes(digest, kind)
        except IntegrityError as exc:
            self.metrics.inc("store.quarantine_propagated")
            self.runner._note_quarantine_propagated(
                digest, kind, str(exc), "coordinator")
            miss("poisoned")
            return
        if data is None:
            miss("poisoned" if self.store.is_poisoned(digest)
                 else "missing")
            return
        plan = get_fault_plan()
        if plan.active:
            time.sleep(plan.delay_s("slow_fetch", f"fetch:{digest}"))
        total = chunk_count(len(data))
        send_msg(conn, {"type": "artifact_data", "digest": digest,
                        "kind": kind, "size": len(data),
                        "chunks": total})
        for seq, _total, raw in iter_chunks(data):
            crc = chunk_crc(raw)
            wire = raw
            if plan.active and plan.fires("corrupt_chunk",
                                          f"chunk:{digest}:{seq}"):
                # damage the payload but keep the stated CRC: the
                # receiver's transport check must catch it and retry
                if raw:
                    damaged = bytearray(raw)
                    where = plan.position(f"chunk:{digest}:{seq}",
                                          len(damaged))
                    damaged[where] ^= 0x40
                    wire = bytes(damaged)
                else:
                    crc ^= 1
            send_msg(conn, {"type": "artifact_chunk", "digest": digest,
                            "seq": seq, "total": total,
                            "data": encode_chunk(wire), "crc": crc})
        self.metrics.inc("store.fetches_served")
        self.metrics.inc("store.chunks_sent", total)
        self.metrics.inc("store.bytes_sent", len(data))
        self.runner._note_fetch(digest, kind, len(data), total)

    def _artifact_recv(self, conn: socket.socket, worker_id: int,
                       message: dict) -> dict | None:
        """Receive one ``artifact_put`` (head + promised chunk frames)
        and return the ``artifact_ack`` reply — or None when the frames
        cannot be safely drained (the caller drops the connection).

        Heartbeat frames may interleave with the chunk stream (the
        worker's beater shares the socket); they are renewed in place.
        """
        digest = str(message.get("digest") or "")
        kind = str(message.get("kind") or "")
        size = message.get("size")
        chunks = message.get("chunks")
        if (not digest or kind not in ArtifactStore.KINDS
                or not isinstance(size, int) or isinstance(size, bool)
                or size < 0 or size > MAX_ARTIFACT_BYTES
                or chunks != chunk_count(size)):
            # an oversized or garbled put head means the promised chunk
            # stream cannot be trusted either: drop the link
            self.metrics.inc("remote.protocol_errors")
            return None
        parts: list[bytes] = []
        received = 0
        damaged = None
        seq = 0
        while seq < chunks:
            frame = recv_msg(conn)
            if frame is None:
                return None
            if frame.get("type") == "heartbeat":
                self._renew(worker_id, frame.get("task_id"))
                continue
            if frame.get("type") != "artifact_put_chunk":
                self.metrics.inc("remote.protocol_errors")
                return None
            raw = decode_chunk(frame.get("data"))
            if raw is None or frame.get("seq") != seq \
                    or chunk_crc(raw) != frame.get("crc"):
                damaged = "crc"
            else:
                received += len(raw)
                if received > MAX_ARTIFACT_BYTES:
                    self.metrics.inc("remote.protocol_errors")
                    return None
                parts.append(raw)
            seq += 1
        if damaged is None and received != size:
            damaged = "truncated"
        if damaged is not None:
            # transport-level damage: nothing landed, worker may retry
            self.metrics.inc("store.put_rejected")
            return {"type": "artifact_ack", "ok": False,
                    "reason": damaged, "retryable": True}
        data = b"".join(parts)
        actual = payload_digest(data)
        if actual != digest:
            # an intact transfer delivering wrong bytes: quarantine the
            # evidence and refuse — but do NOT poison the claimed
            # digest, whose authoritative copy may be healthy
            self.metrics.inc("store.digest_mismatch")
            self._quarantine_blob(digest, data,
                                  f"put from worker-{worker_id} hashes "
                                  f"to {actual!r}")
            return {"type": "artifact_ack", "ok": False,
                    "reason": "digest-mismatch", "retryable": False}
        if self.store is None:
            return {"type": "artifact_ack", "ok": False,
                    "reason": "no-store", "retryable": False}
        stored = self.store.put_bytes(data, kind, digest=digest)
        if stored is None:
            reason = "poisoned" if self.store.is_poisoned(digest) \
                else "refused"
            return {"type": "artifact_ack", "ok": False,
                    "reason": reason, "retryable": False}
        self.metrics.inc("store.puts_accepted")
        self.metrics.inc("store.chunks_received", chunks)
        self.metrics.inc("store.bytes_received", size)
        label = message.get("label")
        position = message.get("position")
        if isinstance(label, str) and label.startswith("ckpt:") \
                and isinstance(position, int):
            task_key = label[len("ckpt:"):]
            with self._lock:
                current = self._ckpt_index.get(task_key)
                if current is None or position >= current[1]:
                    self._ckpt_index[task_key] = (stored, position)
        return {"type": "artifact_ack", "ok": True, "digest": stored}

    def _quarantine_blob(self, digest: str, data: bytes,
                         reason: str) -> None:
        """Write rejected artifact bytes aside (never silently drop)."""
        try:
            qdir = Path(self.runner.quarantine_dir)
            qdir.mkdir(parents=True, exist_ok=True)
            dest = qdir / (f"artifact-{digest}.{os.getpid()}-"
                           f"{time.monotonic_ns()}.quarantined")
            dest.write_bytes(data)
        except OSError:
            # forensic copy lost (disk full / permissions) — the blob is
            # still rejected; surface the sick quarantine volume
            self.metrics.inc("remote.quarantine_write_failed")

    def _poison_notified(self, worker_id: int, message: dict) -> None:
        """A worker verified corruption on its side of a transfer:
        poison the digest fleet-wide so it is never re-served."""
        digest = str(message.get("digest") or "")
        kind = str(message.get("kind") or "")
        reason = str(message.get("reason") or "")
        if not digest:
            self.metrics.inc("remote.protocol_errors")
            return
        if self.store is not None:
            self.store.poison(
                digest, reason or f"quarantine_notify from "
                                  f"worker-{worker_id}")
        self.metrics.inc("store.quarantine_propagated")
        self.runner._note_quarantine_propagated(
            digest, kind, reason, f"worker-{worker_id}")

    def _release(self, worker_id: int, message: dict) -> None:
        """A worker gave a lease back (it could not obtain a required
        artifact): requeue through the steal path, whose cap hands the
        task to the serial ladder if releases keep happening."""
        task_id = message.get("task_id")
        with self._lock:
            lease = self._leases.get(task_id)
            if lease is None or lease.worker != worker_id:
                return
        self.metrics.inc("remote.releases")
        self._steal(task_id,
                    reason=str(message.get("reason") or "released"))

    def _task_errored(self, worker_id: int, message: dict) -> None:
        """A worker reported a genuine task exception: release the lease
        and hand the task to the serial retry ladder (which owns the
        attempt budget), exactly like the local backends do."""
        key = message.get("key", "")
        task_id = message.get("task_id")
        with self._lock:
            lease = self._leases.pop(task_id, None)
            if key not in self._tasks or key in self._committed \
                    or key in self._handed_back:
                return
            self._handed_back.add(key)
        app = lease.app if lease is not None else self._tasks[key][2]
        self.runner._note_error(key, app)

    def _worker_left(self, worker_id: int) -> None:
        with self._lock:
            conn = self._workers.pop(worker_id, None)
            if conn is None:
                return
            closing = self._closing
            if self._workers:
                self._last_worker = time.monotonic()
            stolen = [tid for tid, lease in self._leases.items()
                      if lease.worker == worker_id]
        self.metrics.inc("remote.workers_left")
        self.runner._note_worker_leave(
            worker_id, "closing" if closing else "disconnect")
        if not closing:
            for task_id in stolen:
                self._steal(task_id, reason="worker-left")

    # -- lease stealing --------------------------------------------------------

    def _steal(self, task_id: str, reason: str) -> None:
        """Revoke one lease and requeue (or hand back) its task."""
        runner = self.runner
        now = time.monotonic()
        with self._lock:
            lease = self._leases.pop(task_id, None)
            if lease is None:
                return
            key, app = lease.key, lease.app
            if key in self._committed or key in self._handed_back:
                return
            age = now - lease.start
            timed_out = runner.task_timeout is not None \
                and age > runner.task_timeout
            steals = self._steals.get(key, 0) + 1
            self._steals[key] = steals
            exhausted = steals > MAX_STEALS_PER_TASK
            if not timed_out and not exhausted:
                self._queue.append(key)
        if timed_out:
            # the lease outlived the per-task deadline: this is a hung
            # task, not a sick worker — hand it to the serial ladder
            with self._lock:
                self._handed_back.add(key)
            runner._note_timeout(key, app)
            return
        if exhausted:
            with self._lock:
                self._handed_back.add(key)
            runner._note_requeued(key, app)
            return
        self.metrics.inc("remote.steals")
        runner._note_steal(key, app, lease.worker, age, reason)

    def sweep(self) -> None:
        """Steal every expired lease (called from the batch loop)."""
        now = time.monotonic()
        with self._lock:
            expired = [tid for tid, lease in self._leases.items()
                       if now > lease.deadline]
        for task_id in expired:
            self._steal(task_id, reason="lease-expired")

    # -- batch progress --------------------------------------------------------

    def _finished_locked(self) -> bool:
        return all(key in self._committed or key in self._handed_back
                   for key in self._tasks)

    def finished(self) -> bool:
        with self._lock:
            return self._finished_locked()

    def should_degrade(self) -> bool:
        """Whether the batch should fall back to a local backend: work
        remains, no worker is connected, and none has been for the wait
        budget (measured from batch start when none ever joined)."""
        now = time.monotonic()
        with self._lock:
            if self._finished_locked() or self._workers:
                return False
            since = self._last_worker if self._ever_had_worker \
                else self._started
            return now - since > self.wait_s

    def run(self) -> bool:
        """Drive the batch: sweep leases until every task settles or the
        fleet is gone. Returns True when the batch must degrade."""
        while True:
            if self.finished():
                return False
            if self.should_degrade():
                return True
            self.sweep()
            time.sleep(DEADLINE_POLL_S)


# -- the backend ---------------------------------------------------------------

class RemoteBackend(ExecutionBackend):
    """Fan one batch out to socket-connected ``repro worker`` processes.

    Attributes (settable before the first batch, mainly for tests):

    * ``coord`` — ``host:port`` override for ``REPRO_COORD``.
    * ``self_host`` — force worker self-spawning on (True) or off
      (False); default (None) self-hosts exactly when no coordinator
      address is configured.
    * ``lease_s`` / ``wait_s`` — override the env-derived budgets.
    * ``on_bound`` — callback invoked with the bound ``(host, port)``
      before the batch waits for workers (tests attach in-process
      workers here).
    """

    name = "remote"
    parallel = True

    def __init__(self) -> None:
        self.coord: str | None = None
        self.self_host: bool | None = None
        self.lease_s: float | None = None
        self.wait_s: float | None = None
        self.on_bound = None
        #: worker processes to self-spawn per batch (None = fan-out width)
        self.spawn_workers: int | None = None
        #: artifact-plane mode override for ``REPRO_STORE``
        self.store_mode: str | None = None
        #: private cache dirs handed to self-spawned fetch-mode workers
        self._worker_dirs: list[str] = []

    def run_batch(self, runner, todo, results, progress):
        addr_spec = self.coord if self.coord is not None \
            else os.environ.get(_COORD_ENV, "").strip()
        self_host = self.self_host if self.self_host is not None \
            else not addr_spec
        try:
            host, port = parse_addr(addr_spec) if addr_spec \
                else ("127.0.0.1", 0)
        except ValueError:
            runner._note_remote_degraded(
                f"bad coordinator address {addr_spec!r}", len(todo))
            return self._local_fallback(runner, todo, results, progress)
        lease_s = self.lease_s if self.lease_s is not None \
            else default_lease_s()
        wait_s = self.wait_s if self.wait_s is not None \
            else default_wait_s()
        store_mode = self.store_mode if self.store_mode is not None \
            else default_store_mode()
        store = None
        if store_mode == "fetch":
            try:
                store = ArtifactStore(Path(runner.cache_dir) / "store",
                                      runner.quarantine_dir)
                store.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                # a degraded artifact plane costs throughput, never the
                # campaign: fall back like a lost fleet would
                runner._note_remote_degraded(
                    f"artifact store unavailable ({exc})", len(todo))
                return self._local_fallback(runner, todo, results,
                                            progress)
        coordinator = _Coordinator(runner, todo, results, progress,
                                   lease_s, wait_s,
                                   store_mode=store_mode, store=store)
        try:
            bound = coordinator.start(host, port)
        except OSError as exc:
            runner._note_remote_degraded(
                f"cannot bind {host}:{port} ({exc})", len(todo))
            return self._local_fallback(runner, todo, results, progress)
        procs: list[subprocess.Popen] = []
        try:
            if self_host:
                count = self.spawn_workers if self.spawn_workers \
                    else runner._fanout_workers(len(todo))
                procs = self._spawn(bound, count, store_mode)
                if not procs:
                    coordinator.close()
                    runner._note_remote_degraded(
                        "cannot spawn local workers", len(todo))
                    return self._local_fallback(runner, todo, results,
                                                progress)
            if self.on_bound is not None:
                self.on_bound(bound)
            degraded = coordinator.run()
        finally:
            coordinator.close()
            self._reap(procs)
        if degraded:
            remaining = [entry for entry in todo
                         if entry[0] not in results]
            runner._note_remote_degraded(
                "no live workers", len(remaining))
            return self._local_fallback(runner, remaining, results,
                                        progress)
        return [entry for entry in todo if entry[0] not in results]

    def _local_fallback(self, runner, todo, results, progress):
        """Finish ``todo`` on the auto-picked *local* backend — a dead or
        unreachable fleet must cost throughput, not the campaign."""
        from repro.exec import make_backend
        from repro.exec.auto import auto_pick

        if not todo:
            return []
        choice = auto_pick()
        get_registry().inc(f"remote.fallback.{choice.backend}")
        backend = make_backend(choice.backend)
        if not backend.parallel:
            return list(todo)
        return backend.run_batch(runner, list(todo), results, progress)

    def _spawn(self, addr: tuple[str, int], count: int,
               store_mode: str = "shared") -> list[subprocess.Popen]:
        """Start ``count`` localhost worker subprocesses aimed at the
        self-hosted coordinator. Best-effort: an unspawnable platform
        returns an empty list and the caller degrades. In fetch mode
        each worker gets a private, initially-empty cache dir so the
        self-hosted path exercises the real shared-nothing plane."""
        import tempfile

        import repro

        env = dict(os.environ)
        pkg_root = str(Path(repro.__file__).resolve().parents[1])
        parts = [pkg_root] + [p for p in
                              env.get("PYTHONPATH", "").split(os.pathsep)
                              if p]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        base = [sys.executable, "-m", "repro", "worker",
                "--coord", f"{addr[0]}:{addr[1]}",
                "--exit-on-disconnect", "--max-idle", "120"]
        procs = []
        for _ in range(max(1, count)):
            command = list(base)
            if store_mode == "fetch":
                try:
                    private = tempfile.mkdtemp(
                        prefix="repro-worker-cache-")
                except OSError:
                    break
                self._worker_dirs.append(private)
                command += ["--no-shared-fs", "--cache-dir", private]
            try:
                procs.append(subprocess.Popen(
                    command, env=env, stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL))
            except OSError:
                break
        if not procs:
            return []
        return procs

    def _reap(self, procs: list[subprocess.Popen]) -> None:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 3.0
        for proc in procs:
            timeout = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                try:
                    proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass  # SIGKILL already sent; the OS will reap it
        import shutil
        dirs, self._worker_dirs = self._worker_dirs, []
        for private in dirs:
            shutil.rmtree(private, ignore_errors=True)


# -- the worker ----------------------------------------------------------------

class _DropConnection(Exception):
    """Injected ``drop_conn`` fault: abandon the socket abruptly."""


class _BufferedRunLog:
    """A runlog stand-in for shared-nothing tasks: collects the records
    a run would have written so they ride the result frame back to the
    coordinator (whose log dir the worker cannot reach). Capped at
    :data:`MAX_FORWARDED_RECORDS`; the overflow is counted so the drop
    is never silent."""

    enabled = True

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.dropped = 0

    def write(self, record: dict) -> None:
        if len(self.records) < MAX_FORWARDED_RECORDS:
            self.records.append(record)
        else:
            self.dropped += 1


class _ArtifactClient:
    """One task's worker-side handle on the artifact plane.

    Fetches blobs by digest over the task's coordinator connection
    (chunked, CRC-checked at the transport layer, digest-verified at
    the content layer), warms the worker's private shard, and pushes
    checkpoint generations back. Transport damage — a bad CRC, a short
    assembly, garbled base64 — is *retryable* and rides the capped
    full-jitter backoff; an intact transfer whose bytes mismatch their
    digest is content corruption: the bytes are quarantined locally and
    a ``quarantine_notify`` escalates so the coordinator poisons the
    digest fleet-wide. A socket that dies mid-transfer cannot be
    resynchronised, so the client goes dark for the task and the caller
    falls back (regenerate, or release the lease under
    ``fetch_strict``).
    """

    def __init__(self, sock: socket.socket, lock: threading.Lock,
                 task: dict, store: ArtifactStore | None, metrics,
                 fetch_strict: bool = False) -> None:
        self.sock = sock
        self.lock = lock
        self.artifacts = task.get("artifacts") or {}
        self.checkpoint = task.get("checkpoint")
        self.store = store
        self.metrics = metrics
        self.allow_regen = not fetch_strict
        self.dead = False
        self._permanent = False

    # -- fetch -----------------------------------------------------------------

    def trace_digest(self) -> str | None:
        entry = self.artifacts.get("trace") or {}
        digest = entry.get("digest")
        return digest if isinstance(digest, str) and digest else None

    def fetch(self, digest: str, kind: str) -> bytes | None:
        """The verified bytes for ``digest``, or None when the plane
        cannot supply them (miss, poisoned, exhausted retries, dead
        link)."""
        if self.dead:
            return None
        plan = get_fault_plan()
        for attempt in range(1, FETCH_ATTEMPTS + 1):
            if attempt > 1:
                self.metrics.inc("store.fetch_retries")
                time.sleep(jittered_backoff(
                    RECONNECT_BASE_S, attempt, f"fetch:{digest}",
                    cap=RECONNECT_CAP_S))
            data = self._fetch_once(digest, kind, attempt, plan)
            if data is not None or self.dead:
                return data
            if self._permanent:
                return None
        self.metrics.inc("store.fetch_failures")
        return None

    def _fetch_once(self, digest: str, kind: str, attempt: int,
                    plan) -> bytes | None:
        self._permanent = False
        try:
            send_msg(self.sock, {"type": "artifact_get",
                                 "digest": digest, "kind": kind},
                     self.lock)
            head = recv_msg(self.sock)
        except OSError:
            head = None
        if head is None:
            self.dead = True
            return None
        if head.get("type") == "artifact_miss":
            # missing or poisoned at the source: retrying won't help
            self.metrics.inc("store.fetch_misses")
            self._permanent = True
            return None
        if head.get("type") != "artifact_data":
            self.dead = True
            return None
        size = head.get("size")
        total = head.get("chunks")
        if not isinstance(size, int) or isinstance(size, bool) \
                or size < 0 or size > MAX_ARTIFACT_BYTES \
                or total != chunk_count(size):
            self.metrics.inc("remote.protocol_errors")
            self.dead = True
            return None
        drop_after = None
        if plan.active and plan.fires("truncated_fetch",
                                      f"fetch:{digest}#a{attempt}"):
            # injected torn transfer: the tail chunks are "lost". The
            # frames are still drained (framing stays in sync) but the
            # assembly comes up short — a retryable miss, never data.
            drop_after = plan.position(f"trunc:{digest}:{attempt}",
                                       total)
        parts: list[bytes] = []
        damaged = False
        try:
            for seq in range(total):
                frame = recv_msg(self.sock)
                if frame is None \
                        or frame.get("type") != "artifact_chunk":
                    self.dead = True
                    return None
                raw = decode_chunk(frame.get("data"))
                if raw is None or frame.get("seq") != seq \
                        or chunk_crc(raw) != frame.get("crc"):
                    damaged = True
                    self.metrics.inc("store.chunk_crc_failures")
                    continue
                if drop_after is not None and seq >= drop_after:
                    continue
                parts.append(raw)
        except OSError:
            self.dead = True
            return None
        data = b"".join(parts)
        if damaged or len(data) != size:
            return None  # transport damage: the caller may retry
        actual = payload_digest(data)
        if actual != digest:
            # intact transfer, wrong bytes: content corruption
            self._quarantine(digest, kind, data,
                             f"fetched bytes hash to {actual!r}")
            self._permanent = True
            return None
        self.metrics.inc("store.fetched")
        self.metrics.inc("store.bytes_fetched", len(data))
        self.metrics.inc("store.chunks_fetched", total)
        if self.store is not None:
            self.store.put_bytes(data, kind, digest=digest)
        return data

    def _quarantine(self, digest: str, kind: str, data: bytes,
                    reason: str) -> None:
        self.metrics.inc("store.digest_mismatch")
        if self.store is not None:
            try:
                qdir = self.store.quarantine_dir
                qdir.mkdir(parents=True, exist_ok=True)
                dest = qdir / (f"fetch-{digest}.{os.getpid()}-"
                               f"{time.monotonic_ns()}.quarantined")
                dest.write_bytes(data)
            except OSError:
                # forensic copy lost — rejection still stands; surface
                # the sick quarantine volume
                self.metrics.inc("remote.quarantine_write_failed")
            self.store.poison(digest, reason)
        try:
            send_msg(self.sock, {"type": "quarantine_notify",
                                 "digest": digest, "kind": kind,
                                 "reason": reason}, self.lock)
        except OSError:
            self.dead = True

    # -- materialisation -------------------------------------------------------

    def materialize_trace(self, app: str, path: Path) -> bool:
        """Fetch the app's trace by digest and land it at ``path``
        atomically. True when the file is in place; False sends the
        caller down the local-regeneration path; raises
        :class:`~repro.store.ArtifactUnavailable` when the bytes were
        unobtainable and regeneration is disallowed."""
        digest = self.trace_digest()
        if digest is None:
            if self.allow_regen:
                return False
            raise ArtifactUnavailable(f"no trace digest for {app!r}")
        data = self.fetch(digest, "trace")
        if data is None:
            if self.allow_regen:
                return False
            raise ArtifactUnavailable(
                f"trace {digest!r} for {app!r} unavailable")
        path = Path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / (path.name + f".{os.getpid()}.tmp")
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            return False  # read-only worker cache: regenerate instead
        self.metrics.inc("store.trace_fetched")
        return True

    def materialize_checkpoint(self, cache_dir, key: str) -> bool:
        """Land the newest pushed checkpoint generation for ``key`` in
        this worker's private checkpoint dir, so a stolen task resumes
        mid-simulation instead of restarting. Best-effort."""
        info = self.checkpoint or {}
        digest = info.get("digest")
        position = info.get("position")
        if not isinstance(digest, str) or not isinstance(position, int) \
                or isinstance(position, bool):
            return False
        dest = (Path(cache_dir) / "checkpoints"
                / f"{key}.e{position:08d}.ckpt")
        if dest.exists():
            return True
        data = self.fetch(digest, "ckpt")
        if data is None:
            return False
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            tmp = dest.parent / (dest.name + f".{os.getpid()}.tmp")
            tmp.write_bytes(data)
            os.replace(tmp, dest)
        except OSError:
            return False
        self.metrics.inc("store.ckpt_fetched")
        return True

    # -- push ------------------------------------------------------------------

    def put(self, data: bytes, kind: str, label: str | None = None,
            position: int | None = None) -> bool:
        """Push one blob to the coordinator's store (chunked, CRC per
        chunk, acked). Best-effort: False just means the coordinator
        keeps serving the artifact from elsewhere."""
        if self.dead or len(data) > MAX_ARTIFACT_BYTES:
            return False
        digest = payload_digest(data)
        head = {"type": "artifact_put", "digest": digest, "kind": kind,
                "size": len(data), "chunks": chunk_count(len(data))}
        if label is not None:
            head["label"] = label
        if position is not None:
            head["position"] = int(position)
        try:
            send_msg(self.sock, head, self.lock)
            for seq, _total, raw in iter_chunks(data):
                send_msg(self.sock,
                         {"type": "artifact_put_chunk", "seq": seq,
                          "data": encode_chunk(raw),
                          "crc": chunk_crc(raw)}, self.lock)
            ack = recv_msg(self.sock)
        except OSError:
            ack = None
        if ack is None:
            self.dead = True
            return False
        if not ack.get("ok"):
            return False
        self.metrics.inc("store.pushed")
        self.metrics.inc("store.bytes_pushed", len(data))
        return True


class _Worker:
    """One worker's connect / pull / simulate / report loop."""

    def __init__(self, coord: str, *, max_idle_s: float | None = None,
                 max_tasks: int | None = None,
                 exit_on_disconnect: bool = False,
                 in_process: bool = False,
                 heartbeats_enabled: bool = True,
                 pre_result_delay_s: float = 0.0,
                 reconnect_cap_s: float = RECONNECT_CAP_S,
                 no_shared_fs: bool = False,
                 cache_dir: str | os.PathLike | None = None,
                 fetch_strict: bool = False,
                 stop_event: threading.Event | None = None) -> None:
        self.host, self.port = parse_addr(coord)
        self.max_idle_s = max_idle_s
        self.max_tasks = max_tasks
        self.exit_on_disconnect = exit_on_disconnect
        self.in_process = in_process
        self.heartbeats_enabled = heartbeats_enabled
        self.pre_result_delay_s = pre_result_delay_s
        self.reconnect_cap_s = reconnect_cap_s
        #: never trust task-frame paths: use a private cache and the
        #: artifact plane even when the coordinator says ``shared``
        self.no_shared_fs = no_shared_fs
        self.cache_dir = Path(cache_dir) if cache_dir is not None \
            else None
        #: refuse to regenerate when a fetch fails (tests pin the
        #: release-the-lease path with this)
        self.fetch_strict = fetch_strict
        self.stop_event = stop_event or threading.Event()
        self.token = (f"worker-{socket.gethostname()}-{os.getpid()}-"
                      f"{threading.get_ident()}")
        self.tasks_done = 0
        self.metrics = get_registry()
        self._runners: dict[tuple, object] = {}
        self._stores: dict[str, ArtifactStore] = {}

    # -- plumbing --------------------------------------------------------------

    def _sleep(self, seconds: float) -> None:
        self.stop_event.wait(max(0.0, seconds))

    def _stopped(self) -> bool:
        return self.stop_event.is_set()

    def _private_cache_dir(self) -> Path:
        """This worker's own cache root (``--cache-dir``, else the
        worker-local default) — never the coordinator's path."""
        if self.cache_dir is None:
            from repro.sim.experiments import default_cache_dir
            self.cache_dir = default_cache_dir()
        return self.cache_dir

    def _store_for(self, runner) -> ArtifactStore | None:
        """The private shard this worker warms from fetches (None when
        the runner keeps no disk cache to warm)."""
        if not runner.use_disk_cache:
            return None
        root = str(Path(runner.cache_dir) / "store")
        store = self._stores.get(root)
        if store is None:
            store = ArtifactStore(root, runner.quarantine_dir)
            self._stores[root] = store
        return store

    def _runner_for(self, task: dict):
        """A serial runner matching the task's spec (cached per spec so a
        stream of same-campaign tasks shares the in-memory trace cache).
        Worker hazards arm only in dedicated processes — an in-process
        (test-thread) worker must never ``os._exit`` its host.

        The memo key carries everything that shapes a run: the cache
        location, campaign shape *and* fidelity, so a parked worker
        serving two campaigns with different settings never reuses a
        stale clone.
        """
        from repro.sim.experiments import ExperimentRunner
        from repro.sim.sampling import FIDELITY_NAMES

        shared = task.get("store", "shared") == "shared" \
            and not self.no_shared_fs
        if shared:
            cache_dir = task["cache_dir"]
            log_dir = task.get("log_dir")
        else:
            # shared-nothing: the coordinator's paths mean nothing here
            # as *locations*, but the campaign's cache_dir is still its
            # cache *identity* — scope the private cache per campaign so
            # a parked worker's hits/misses mirror what a shared-fs
            # worker on that campaign would see, instead of one
            # ever-warm cache bleeding across unrelated campaigns
            campaign = hashlib.sha256(
                str(task.get("cache_dir", "")).encode()).hexdigest()[:12]
            cache_dir = str(self._private_cache_dir() / campaign)
            log_dir = None
        fidelity = task.get("fidelity")
        if fidelity not in FIDELITY_NAMES:
            fidelity = "full"  # degrade, never crash a parked worker
        spec = (cache_dir, float(task["scale"]), int(task["seed"]),
                bool(task["use_disk_cache"]), log_dir,
                int(task.get("checkpoint_events", 0)), shared, fidelity)
        runner = self._runners.get(spec)
        if runner is None:
            runner = ExperimentRunner(
                cache_dir=cache_dir, scale=spec[1], seed=spec[2],
                use_disk_cache=spec[3], jobs=1, backend="serial",
                task_timeout=None, max_attempts=1, retry_backoff=0.0,
                log_dir=log_dir, checkpoint_events=spec[5],
                heartbeat_timeout=0.0, mem_limit_mb=0,
                fidelity=fidelity)
            runner.backend_label = "remote"
            runner.is_worker = not self.in_process
            self._runners[spec] = runner
        return runner

    # -- the loop --------------------------------------------------------------

    def run(self) -> int:
        """Connect (with capped full-jitter backoff), serve tasks, and
        reconnect on loss or batch end until told to stop — only
        ``exit_on_disconnect`` workers treat a lost/finished coordinator
        as terminal. Returns tasks completed."""
        attempt = 0
        idle_since = time.monotonic()
        while not self._stopped():
            if self.max_idle_s is not None \
                    and time.monotonic() - idle_since > self.max_idle_s:
                break
            attempt += 1
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=5.0)
            except OSError:
                self._sleep(jittered_backoff(
                    RECONNECT_BASE_S, attempt + 1, self.token,
                    cap=self.reconnect_cap_s))
                continue
            if attempt > 1:
                self.metrics.inc("remote.reconnects")
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # latency tweak only; absent on some transports
            reason = None
            try:
                reason, idle_since = self._serve(sock, idle_since)
                attempt = 0
            except _DropConnection:
                pass  # injected fault: reconnect as if the link died
            except OSError:
                pass  # link died mid-serve: the loop reconnects
            finally:
                try:
                    sock.close()
                except OSError:
                    pass  # socket already dead; nothing left to release
            if self.exit_on_disconnect or reason in ("idle", "max-tasks"):
                break
            if reason == "shutdown":
                # batch over, coordinator gone: a parked worker goes
                # back to the connect loop and waits for the next one
                idle_since = time.monotonic()
            if self.max_tasks is not None \
                    and self.tasks_done >= self.max_tasks:
                break
        return self.tasks_done

    def _serve(self, sock: socket.socket,
               idle_since: float) -> tuple[str | None, float]:
        """One connection's lifetime; returns (why it ended, idle stamp).
        The reason is ``"shutdown"`` (coordinator finished its batch),
        ``"idle"`` / ``"max-tasks"`` (this worker's own limits — always
        terminal), or ``None`` (stop event)."""
        lock = threading.Lock()
        send_msg(sock, {"type": "hello", "pid": os.getpid(),
                        "host": socket.gethostname()}, lock)
        welcome = recv_msg(sock)
        if not welcome or welcome.get("type") != "welcome":
            raise OSError("no welcome from coordinator")
        lease_s = float(welcome.get("lease_s", DEFAULT_LEASE_S))
        while not self._stopped():
            if self.max_tasks is not None \
                    and self.tasks_done >= self.max_tasks:
                send_msg(sock, {"type": "goodbye"}, lock)
                return "max-tasks", idle_since
            send_msg(sock, {"type": "request"}, lock)
            message = recv_msg(sock)
            if message is None:
                raise OSError("coordinator went away")
            kind = message.get("type")
            if kind == "task":
                self._run_task(sock, lock, message, lease_s)
                self.tasks_done += 1
                idle_since = time.monotonic()
            elif kind == "idle":
                if self.max_idle_s is not None and \
                        time.monotonic() - idle_since > self.max_idle_s:
                    send_msg(sock, {"type": "goodbye"}, lock)
                    return "idle", idle_since
                self._sleep(float(message.get("poll_s",
                                              WORKER_IDLE_POLL_S)))
            elif kind == "shutdown":
                return "shutdown", idle_since
            else:
                # version skew or corruption, not churn: count it apart
                # from disconnects, then treat the link as unusable
                self.metrics.inc("remote.protocol_errors")
                raise OSError(f"unexpected message {kind!r}")
        return None, idle_since

    def _run_task(self, sock: socket.socket, lock: threading.Lock,
                  task: dict, lease_s: float) -> None:
        plan = get_fault_plan()
        key, app = task["key"], task["app"]
        task_id = task["task_id"]
        token = f"{key}#a{task.get('attempt', 1)}"
        if plan.active and plan.fires("drop_conn", token):
            # the link "dies" right as the task lands: the lease expires
            # (or the leave is noticed) and the task is stolen
            raise _DropConnection(token)
        if not self.in_process:
            plan.maybe_kill_worker(token)
        heartbeat_stop = threading.Event()
        suppress = not self.heartbeats_enabled or \
            (plan.active and plan.fires("stale_lease", token))
        beater = None
        if not suppress:
            interval = max(0.05, lease_s / 3.0)

            def beat():
                while not heartbeat_stop.wait(interval):
                    try:
                        send_msg(sock, {"type": "heartbeat",
                                        "task_id": task_id}, lock)
                    except OSError:
                        return

            beater = threading.Thread(target=beat, daemon=True,
                                      name="repro-worker-heartbeat")
            beater.start()
        error = None
        payload = None
        release_reason = None
        runner = None
        buffered = None
        saved_runlog = None
        try:
            runner = self._runner_for(task)
            runner.worker_attempt = int(task.get("attempt", 1))
            if task.get("store") == "fetch" or self.no_shared_fs:
                client = _ArtifactClient(
                    sock, lock, task, self._store_for(runner),
                    metrics=self.metrics,
                    fetch_strict=self.fetch_strict)
                runner.store_client = client
                if task.get("log_dir"):
                    # the coordinator logs but its log dir is not ours
                    # to write: buffer the records and forward them with
                    # the result
                    buffered = _BufferedRunLog()
                    saved_runlog = runner._runlog
                    runner._runlog = buffered
                if runner.checkpoint_events > 0 \
                        and runner.use_disk_cache:
                    client.materialize_checkpoint(runner.cache_dir, key)

                    def _mirror(ckey, path, state, _client=client):
                        try:
                            _client.put(
                                Path(path).read_bytes(), "ckpt",
                                label=f"ckpt:{ckey}",
                                position=int(
                                    state["loop"]["position"]))
                        except Exception:  # noqa: BLE001 — best-effort
                            # a missed mirror only costs resume
                            # granularity; the local checkpoint and the
                            # lease machinery still cover the task
                            self.metrics.inc(
                                "remote.ckpt_mirror_failed")

                    runner.checkpoint_mirror = _mirror
            config = config_from_dict(task["config"])
            payload = runner.run(app, config).to_dict()
        except (KeyboardInterrupt, SystemExit):
            raise
        except ArtifactUnavailable as exc:
            release_reason = str(exc)
        except BaseException as exc:  # noqa: BLE001 — reported upstream
            error = f"{type(exc).__name__}: {exc}"
        finally:
            heartbeat_stop.set()
            if beater is not None:
                beater.join(timeout=2.0)
            if runner is not None:
                runner.store_client = None
                runner.checkpoint_mirror = None
                if saved_runlog is not None:
                    runner._runlog = saved_runlog
        if self.pre_result_delay_s > 0:
            self._sleep(self.pre_result_delay_s)
        if plan.active:
            self._sleep(plan.delay_s("slow_socket", token))
        if release_reason is not None:
            # the plane could not supply a required artifact: give the
            # lease back for stealing instead of failing the task
            self.metrics.inc("store.releases")
            send_msg(sock, {"type": "release", "task_id": task_id,
                            "key": key, "app": app,
                            "reason": release_reason}, lock)
            return
        if error is not None:
            send_msg(sock, {"type": "error", "task_id": task_id,
                            "key": key, "app": app,
                            "reason": error}, lock)
            recv_msg(sock)
            return
        digest = payload_digest(canonical_json(payload))
        message = {"type": "result", "task_id": task_id, "key": key,
                   "app": app, "digest": digest, "payload": payload}
        if buffered is not None and buffered.records:
            message["runlog"] = buffered.records
            if buffered.dropped:
                self.metrics.inc("store.runlog_dropped",
                                 buffered.dropped)
        copies = 2 if plan.active and plan.fires("dup_result", token) \
            else 1
        for _ in range(copies):
            send_msg(sock, message, lock)
            if recv_msg(sock) is None:
                raise OSError("coordinator went away mid-ack")


def worker_main(coord: str, *, max_idle_s: float | None = None,
                max_tasks: int | None = None,
                exit_on_disconnect: bool = False,
                in_process: bool = False,
                heartbeats_enabled: bool = True,
                pre_result_delay_s: float = 0.0,
                reconnect_cap_s: float = RECONNECT_CAP_S,
                no_shared_fs: bool = False,
                cache_dir: str | os.PathLike | None = None,
                fetch_strict: bool = False,
                stop_event: threading.Event | None = None) -> int:
    """Run one worker against ``coord`` (``host:port``); the entry point
    behind ``repro worker``, also callable in-process (tests run it in
    threads with ``in_process=True`` so process-level hazards never arm).
    ``no_shared_fs`` makes the worker ignore task-frame paths and serve
    everything from its own ``cache_dir`` through the artifact plane.
    Returns the number of tasks completed."""
    worker = _Worker(coord, max_idle_s=max_idle_s, max_tasks=max_tasks,
                     exit_on_disconnect=exit_on_disconnect,
                     in_process=in_process,
                     heartbeats_enabled=heartbeats_enabled,
                     pre_result_delay_s=pre_result_delay_s,
                     reconnect_cap_s=reconnect_cap_s,
                     no_shared_fs=no_shared_fs, cache_dir=cache_dir,
                     fetch_strict=fetch_strict,
                     stop_event=stop_event)
    return worker.run()
