"""The profiling daemon: socket front ends, job registry, cache glue.

One :class:`ProfilingServer` owns

* a Unix-domain listener speaking the length-prefixed JSON protocol,
  one handler thread per connection — and, for fleet deployments, a TCP
  listener speaking the identical protocol behind a shared-secret
  ``auth`` handshake (per-connection auth state; every op before a
  successful handshake is refused with ``auth-required``);
* a bounded job queue drained by the supervised
  :class:`~repro.service.worker.WorkerPool` — a full queue rejects the
  submit with an explicit ``busy`` error rather than blocking the
  client (backpressure is a response, not a hang);
* the content-addressed :class:`~repro.service.cache.ResultCache` (with
  optional byte budget + TTL) plus the workload→digest memo, probed at
  submit time so a warm submit completes in the connection handler
  without ever touching the queue;
* an upload registry of streamed traces (``trace-begin`` /
  ``trace-chunk`` / ``trace-end``), digest-verified and
  content-addressed, so ``trace_ref`` submits never re-ship or re-hash
  bytes;
* an in-flight fingerprint map that coalesces concurrent submits of the
  identical job onto one execution;
* :class:`~repro.service.metrics.ServiceMetrics` behind the ``stats``
  endpoint (labelled per shard in fleet mode).

In fleet mode (:meth:`configure_fleet`) every server holds the shared
:class:`~repro.service.fleet.FleetConfig` and routes each submit whose
cache key it does not own to the key's ring owner — forwarding the
trace bytes first if the owner has not seen them — so repeat questions
always land on the shard holding the warm entry.  Locally-run jobs
whose key belongs elsewhere replicate their result to the owner, and a
``drain`` request ships the shard's hot cache entries and incremental
checkpoints to their post-departure owners before stopping.

Shutdown is graceful by default: a ``shutdown`` request flips the server
into draining mode (new submits are refused with ``shutting-down``),
running and queued jobs finish, and only then does the listener close.
``mode="now"`` additionally cancels queued and running jobs first.
"""

from __future__ import annotations

import base64
import hmac
import os
import queue
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..trace.store import file_digest
from . import protocol
from .cache import ResultCache, WorkloadDigestMemo, cache_key
from .client import ServiceClient, ServiceError
from .fleet.ring import FleetConfig, HashRing
from .fleet.upload import UploadError, UploadSession, UploadStore
from .jobs import JobSpec, SpecError
from .metrics import ServiceMetrics
from .worker import Attempt, WorkerPool

#: Entries per ``handoff`` request during a drain (keeps each frame well
#: under the protocol's message cap even for fat result payloads).
HANDOFF_BATCH = 64

#: At most this many cache entries ship during a drain — the *hot* end
#: of the LRU order; a cold tail is cheaper to recompute than to copy.
HANDOFF_MAX_ENTRIES = 512

#: How long a server-initiated hang-up reads and discards the peer's
#: in-flight bytes before closing.
HANG_UP_DRAIN_S = 0.5


def _hang_up(conn: socket.socket) -> None:
    """End a connection after its final reply without resetting the peer.

    Closing a TCP socket with unread bytes queued sends a reset, which
    can reach the peer before it reads the reply or the end of stream.
    So shut the write side (the peer reads the reply, then EOF), read
    and discard what the peer still sends for at most
    ``HANG_UP_DRAIN_S``, and leave the close to the caller.
    """
    deadline = time.monotonic() + HANG_UP_DRAIN_S
    try:
        conn.shutdown(socket.SHUT_WR)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                return
            conn.settimeout(left)
            if not conn.recv(65536):
                return
    except OSError:  # timed out, or the peer is already gone
        pass


@dataclass
class Job:
    """Server-side state of one submitted job."""

    id: str
    spec: JobSpec
    fingerprint: str
    state: str = "queued"  # queued | running | done
    outcome: Optional[str] = None  # see metrics.OUTCOMES
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    cache_tier: Optional[str] = None  # memory | disk, for cache outcomes
    attempts: int = 0
    coalesced_submits: int = 0
    submitted_at: float = field(default_factory=time.perf_counter)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    done: threading.Event = field(default_factory=threading.Event)

    def status_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "outcome": self.outcome,
            "attempts": self.attempts,
            "coalesced_submits": self.coalesced_submits,
            "cache": self.cache_tier,
            "spec": self.spec.to_dict(),
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        if self.started_at is not None:
            payload["queue_wait_s"] = self.started_at - self.submitted_at
        if self.finished_at is not None and self.started_at is not None:
            payload["run_s"] = self.finished_at - self.started_at
        return payload


class _ConnState:
    """Per-connection protocol state: auth progress + in-flight upload."""

    __slots__ = ("authed", "close", "upload", "upload_error")

    def __init__(self, authed: bool) -> None:
        self.authed = authed
        self.close = False
        self.upload: Optional[UploadSession] = None
        #: a failure raised by an (unacknowledged) trace-chunk frame,
        #: parked here until the next responding frame reports it
        self.upload_error: Optional[Dict[str, Any]] = None


class ProfilingServer:
    """Long-running profiling daemon on a Unix socket and/or TCP port."""

    def __init__(
        self,
        socket_path: Optional[Union[str, Path]],
        cache_dir: Union[str, Path],
        workers: int = 2,
        queue_size: int = 16,
        default_timeout_s: float = 300.0,
        memory_cache_entries: int = 128,
        tcp_addr: Optional[Tuple[str, int]] = None,
        auth_token: Optional[str] = None,
        cache_max_bytes: Optional[int] = None,
        cache_ttl_s: Optional[float] = None,
        shard_id: Optional[str] = None,
    ) -> None:
        self._socket_path = str(socket_path) if socket_path is not None else None
        self._tcp_addr = tcp_addr
        self._tcp_port: Optional[int] = None
        self._auth_token = auth_token
        self._cache_dir = Path(cache_dir)
        self._cache_dir.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(
            self._cache_dir,
            memory_cache_entries,
            max_bytes=cache_max_bytes,
            ttl_s=cache_ttl_s,
        )
        self.memo = WorkloadDigestMemo(self._cache_dir)
        self.uploads = UploadStore(self._cache_dir / "uploads")
        self.metrics = ServiceMetrics(
            labels={"shard": shard_id} if shard_id else None
        )
        self._pool = WorkerPool(
            workers,
            queue_size,
            on_start=self._job_started,
            on_done=self._job_done,
            default_timeout_s=default_timeout_s,
        )
        self._workers = workers
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, str] = {}  # fingerprint -> job id
        self._next_id = 0
        self._lock = threading.Lock()
        self._draining = False
        self._listener: Optional[socket.socket] = None
        self._tcp_listener: Optional[socket.socket] = None
        self._accept_threads: List[threading.Thread] = []
        self._closed = threading.Event()
        self._fleet: Optional[FleetConfig] = None
        self._ring: Optional[HashRing] = None
        self._shard_id = shard_id
        self._peers: Dict[str, ServiceClient] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Bind the socket(s) and start the pool + accept thread(s)."""
        if self._socket_path is None and self._tcp_addr is None:
            raise ValueError("server needs a unix socket path, a TCP address, or both")
        if self._socket_path is not None:
            if os.path.exists(self._socket_path):
                os.unlink(self._socket_path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self._socket_path)
            listener.listen(64)
            self._listener = listener
            # Unix connections are pre-authorized: the socket file's
            # filesystem permissions are the access control.
            self._spawn_accept(listener, require_auth=False)
        if self._tcp_addr is not None:
            host, port = self._tcp_addr
            tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            tcp.bind((host, port))
            tcp.listen(128)
            self._tcp_port = tcp.getsockname()[1]
            self._tcp_listener = tcp
            self._spawn_accept(tcp, require_auth=self._auth_token is not None)
        self._pool.start()

    def _spawn_accept(self, listener: socket.socket, require_auth: bool) -> None:
        thread = threading.Thread(
            target=self._accept_loop,
            args=(listener, require_auth),
            name="service-accept",
            daemon=True,
        )
        thread.start()
        self._accept_threads.append(thread)

    def configure_fleet(self, fleet: FleetConfig, shard_id: str) -> None:
        """Join a fleet: adopt the shared topology and this server's identity.

        Placement is pure ring math over the config, so every shard (and
        every client) holding an equal config agrees on ownership with no
        further coordination.
        """
        fleet.shard(shard_id)  # raises KeyError if we're not in the config
        with self._lock:
            self._fleet = fleet
            self._ring = fleet.ring()
            self._shard_id = shard_id
            self._peers.clear()
        self.metrics.set_label("shard", shard_id)

    def serve_forever(self) -> None:
        """Block until a shutdown request (or :meth:`close`) completes."""
        self._closed.wait()

    def close(self) -> None:
        """Immediate local shutdown (tests / ``finally`` blocks)."""
        self._shutdown(drain=False)

    @property
    def socket_path(self) -> Optional[str]:
        return self._socket_path

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound TCP port (None before :meth:`start` or without TCP)."""
        return self._tcp_port

    @property
    def shard_id(self) -> Optional[str]:
        return self._shard_id

    def _shutdown(self, drain: bool) -> None:
        with self._lock:
            if self._closed.is_set():
                return
            self._draining = True
        if not drain:
            for job in list(self._jobs.values()):
                job.cancel_event.set()
        while not self._pool.idle():
            time.sleep(0.02)
        self._pool.stop()
        for listener in (self._listener, self._tcp_listener):
            if listener is not None:
                # shutdown() before close(): worker processes forked by
                # the pool inherit the listening fd, so close() alone
                # leaves the kernel socket accepting (and a thread
                # blocked in accept() would keep serving a "dead"
                # shard); shutdown() kills the socket for every holder.
                try:
                    listener.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    listener.close()
                except OSError:  # pragma: no cover
                    pass
        if self._socket_path is not None and os.path.exists(self._socket_path):
            try:
                os.unlink(self._socket_path)
            except OSError:  # pragma: no cover
                pass
        self._closed.set()

    # ------------------------------------------------------------------ #
    # Connection handling                                                #
    # ------------------------------------------------------------------ #

    def _accept_loop(self, listener: socket.socket, require_auth: bool) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:  # listener closed
                return
            thread = threading.Thread(
                target=self._handle_connection,
                args=(conn, require_auth),
                daemon=True,
            )
            thread.start()

    def _handle_connection(
        self, conn: socket.socket, require_auth: bool = False
    ) -> None:
        state = _ConnState(authed=not require_auth)
        try:
            while True:
                try:
                    request = protocol.recv_message(conn)
                except protocol.ProtocolError as err:
                    protocol.send_message(
                        conn, protocol.error(protocol.ERR_BAD_REQUEST, str(err))
                    )
                    _hang_up(conn)
                    return
                if request is None:
                    return
                try:
                    response = self._dispatch(request, state)
                except Exception as err:  # noqa: BLE001 — handler boundary
                    response = protocol.error(
                        protocol.ERR_INTERNAL, f"{type(err).__name__}: {err}"
                    )
                if response is not None:
                    protocol.send_message(conn, response)
                if state.close:
                    _hang_up(conn)
                    return
        except OSError:
            pass  # client went away; cleanup below
        finally:
            if state.upload is not None:
                # Connection dropped between trace-begin and trace-end:
                # the truncated spool must never register.
                state.upload.abort()
                state.upload = None
                self.metrics.increment("uploads_aborted")
            conn.close()

    def _dispatch(
        self, request: Dict[str, Any], state: Optional[_ConnState] = None
    ) -> Optional[Dict[str, Any]]:
        """Route one request; ``None`` means no response frame (trace-chunk)."""
        if state is None:
            state = _ConnState(authed=True)
        op = request.get("op")
        if op == "auth":
            return self._handle_auth(request, state)
        if not state.authed:
            state.close = True
            return protocol.error(
                protocol.ERR_AUTH_REQUIRED,
                "this transport requires an auth handshake before any other op",
            )
        if op == "ping":
            return protocol.ok(pong=True)
        if op == "submit":
            return self._handle_submit(request)
        if op == "status":
            return self._handle_status(request)
        if op == "wait":
            return self._handle_wait(request)
        if op == "cancel":
            return self._handle_cancel(request)
        if op == "stats":
            return protocol.ok(stats=self.stats())
        if op == "shutdown":
            return self._handle_shutdown(request)
        if op == "trace-begin":
            return self._handle_trace_begin(state)
        if op == "trace-chunk":
            return self._handle_trace_chunk(request, state)
        if op == "trace-end":
            return self._handle_trace_end(request, state)
        if op == "has-trace":
            return self._handle_has_trace(request)
        if op == "handoff":
            return self._handle_handoff(request)
        if op == "drain":
            return self._handle_drain()
        if op == "ring":
            return self._handle_ring()
        return protocol.error(protocol.ERR_BAD_REQUEST, f"unknown op {op!r}")

    def _handle_auth(
        self, request: Dict[str, Any], state: _ConnState
    ) -> Dict[str, Any]:
        token = request.get("token")
        if self._auth_token is None:
            state.authed = True  # no secret configured: auth is a no-op
            return protocol.ok(authed=True)
        if isinstance(token, str) and hmac.compare_digest(
            token.encode("utf-8"), self._auth_token.encode("utf-8")
        ):
            state.authed = True
            return protocol.ok(authed=True)
        state.close = True  # one strike: a bad token costs the connection
        self.metrics.increment("auth_failures")
        return protocol.error(
            protocol.ERR_AUTH_FAILED, "shared-secret token rejected"
        )

    # ------------------------------------------------------------------ #
    # Streaming trace upload                                             #
    # ------------------------------------------------------------------ #

    def _handle_trace_begin(self, state: _ConnState) -> Dict[str, Any]:
        from .fleet.upload import MAX_CHUNK_BYTES

        if self._draining:
            return protocol.error(protocol.ERR_SHUTTING_DOWN, "server is draining")
        if state.upload is not None:
            state.upload.abort()
            state.upload = None
            return protocol.error(
                protocol.ERR_BAD_UPLOAD,
                "trace-begin while an upload was already in flight",
            )
        state.upload = self.uploads.session()
        state.upload_error = None
        self.metrics.increment("uploads_started")
        return protocol.ok(upload=True, chunk_limit=MAX_CHUNK_BYTES)

    def _handle_trace_chunk(
        self, request: Dict[str, Any], state: _ConnState
    ) -> None:
        """Spool one chunk.  Never responds — errors park on the state and
        are reported by the next responding frame (``trace-end``)."""
        if state.upload_error is not None:
            return None  # already failed; drain remaining chunks silently
        if state.upload is None:
            state.upload_error = protocol.error(
                protocol.ERR_BAD_UPLOAD, "trace-chunk without trace-begin"
            )
            return None
        data = request.get("data")
        raw: Optional[bytes] = None
        if isinstance(data, str):
            try:
                raw = base64.b64decode(data, validate=True)
            except ValueError:
                raw = None
        if raw is None:
            state.upload_error = protocol.error(
                protocol.ERR_BAD_UPLOAD, "trace-chunk data must be base64"
            )
            state.upload.abort()
            state.upload = None
            return None
        try:
            state.upload.append(raw)
        except UploadError as err:
            state.upload_error = protocol.error(err.code, err.message)
            state.upload.abort()
            state.upload = None
        return None

    def _handle_trace_end(
        self, request: Dict[str, Any], state: _ConnState
    ) -> Dict[str, Any]:
        if state.upload_error is not None:
            response = state.upload_error
            state.upload_error = None
            if state.upload is not None:
                state.upload.abort()
                state.upload = None
            self.metrics.increment("uploads_failed")
            return response
        if state.upload is None:
            return protocol.error(
                protocol.ERR_BAD_UPLOAD, "trace-end without trace-begin"
            )
        digest = request.get("digest")
        if not isinstance(digest, str):
            state.upload.abort()
            state.upload = None
            return protocol.error(
                protocol.ERR_BAD_REQUEST, "trace-end needs the client's digest"
            )
        upload = state.upload
        state.upload = None
        try:
            finished = upload.finish(digest)
        except UploadError as err:
            self.metrics.increment("uploads_failed")
            return protocol.error(err.code, err.message)
        self.metrics.increment("uploads_ok")
        self.metrics.increment("upload_bytes", finished.size)
        spec_data = request.get("spec")
        if spec_data is None:
            return protocol.ok(digest=finished.digest, bytes=finished.size)
        if not isinstance(spec_data, dict):
            return protocol.error(
                protocol.ERR_INVALID_SPEC, "trace-end spec must be an object"
            )
        if request.get("stream"):
            return self._stream_slice_response(finished, spec_data)
        spec_data = dict(spec_data)
        spec_data["trace_ref"] = finished.digest
        response = self._submit_spec(
            spec_data,
            wait=bool(request.get("wait", True)),
            forwarded=bool(request.get("forwarded", False)),
        )
        if response.get("ok"):
            response["digest"] = finished.digest
            response["uploaded_bytes"] = finished.size
        return response

    def _stream_slice_response(
        self, finished: Any, spec_data: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Slice every frame of a just-finished upload, epoch by epoch.

        Runs in the connection handler (not a worker): the whole point is
        producing per-frame results as the spooled stream is consumed,
        with bounded memory.  The checkpoint persists under the shared
        naming rule, so the streamed pass leaves later per-frame submits
        of the same digest warm.
        """
        from ..profiler.incremental import (
            SliceCheckpoint,
            checkpoint_path_for,
            stream_slice,
        )

        spec_data = dict(spec_data)
        spec_data["trace_ref"] = finished.digest
        try:
            spec = JobSpec.from_dict(spec_data)
        except (SpecError, TypeError) as err:
            self.metrics.increment("invalid_specs")
            return protocol.error(protocol.ERR_INVALID_SPEC, str(err))
        if spec.engine != "incremental":
            return protocol.error(
                protocol.ERR_INVALID_SPEC,
                f"stream slicing requires engine='incremental', got {spec.engine!r}",
            )
        ckpt_dir = self._cache_dir / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        ckpt_path = checkpoint_path_for(finished.digest, ckpt_dir)
        checkpoint = None
        checkpoint_state = "cold"
        if ckpt_path.exists():
            try:
                checkpoint = SliceCheckpoint.load(ckpt_path)
                checkpoint_state = "warm"
            except ValueError:
                checkpoint = None  # torn/stale file: rebuild from scratch
        if checkpoint is None:
            checkpoint = SliceCheckpoint(trace_digest=finished.digest)
        t0 = time.perf_counter()
        frames: List[Dict[str, Any]] = []
        import hashlib as _hashlib

        for result in stream_slice(str(finished.path), checkpoint=checkpoint):
            frames.append(
                {
                    "frame_id": result.frame_id,
                    "kind": result.kind,
                    "lo": result.lo,
                    "hi": result.hi,
                    "n_records": result.n_records(),
                    "in_slice": result.in_slice,
                    "criteria": result.criteria_name,
                    "flags_sha256": _hashlib.sha256(
                        bytes(result.flags)
                    ).hexdigest(),
                }
            )
        checkpoint.trace_digest = finished.digest
        checkpoint.save(ckpt_path)
        elapsed = time.perf_counter() - t0
        self.metrics.increment("stream_slices")
        self.metrics.observe("slice", elapsed)
        return protocol.ok(
            digest=finished.digest,
            bytes=finished.size,
            streamed=True,
            checkpoint=checkpoint_state,
            frames=frames,
            slice_s=elapsed,
        )

    def _handle_has_trace(self, request: Dict[str, Any]) -> Dict[str, Any]:
        digest = request.get("digest")
        if not isinstance(digest, str):
            return protocol.error(
                protocol.ERR_BAD_REQUEST, "has-trace needs a digest"
            )
        return protocol.ok(digest=digest, present=self.uploads.has(digest))

    # ------------------------------------------------------------------ #
    # Submit path                                                        #
    # ------------------------------------------------------------------ #

    def _probe_digest(self, spec: JobSpec) -> Optional[str]:
        """The job's trace digest, when knowable without running it."""
        if spec.trace_ref is not None:
            return spec.trace_ref  # the ref *is* the digest
        if spec.trace_path is not None:
            try:
                return file_digest(spec.trace_path)
            except OSError:
                return None  # surfaced as a job error by the worker
        assert spec.workload is not None
        return self.memo.get(spec.workload)

    def _handle_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            spec = JobSpec.from_dict(request.get("spec") or {})
        except (SpecError, TypeError) as err:
            self.metrics.increment("invalid_specs")
            return protocol.error(protocol.ERR_INVALID_SPEC, str(err))
        return self._submit_spec(
            spec,
            wait=bool(request.get("wait", False)),
            forwarded=bool(request.get("forwarded", False)),
        )

    def _submit_spec(
        self,
        spec: Union[JobSpec, Dict[str, Any]],
        wait: bool,
        forwarded: bool = False,
    ) -> Dict[str, Any]:
        if isinstance(spec, dict):
            try:
                spec = JobSpec.from_dict(spec)
            except (SpecError, TypeError) as err:
                self.metrics.increment("invalid_specs")
                return protocol.error(protocol.ERR_INVALID_SPEC, str(err))
        self.metrics.increment("submits")

        # Fleet routing: a submit whose cache key belongs to another
        # shard is proxied there (trace bytes first, if the owner has
        # not seen them).  ``forwarded`` marks a request that already
        # hopped once — it always executes here, so routing disagreement
        # can never loop.
        if not forwarded:
            route = self._route(spec)
            if route is not None:
                owner = route[1]
                if owner != self._shard_id:
                    response = self._forward_submit(spec, owner, wait)
                    if response is not None:
                        return response
                    # Owner unreachable: serve locally (ring failover).

        spec = self._localize(spec)
        if spec.trace_ref is not None and not self.uploads.has(spec.trace_ref):
            return protocol.error(
                protocol.ERR_NO_SUCH_TRACE,
                f"no uploaded trace {spec.trace_ref[:16]}…; stream it first",
            )

        fingerprint = spec.fingerprint()
        coalesced = False
        with self._lock:
            if self._draining:
                return protocol.error(
                    protocol.ERR_SHUTTING_DOWN, "server is draining"
                )
            # Coalesce onto an in-flight identical job.
            existing_id = self._inflight.get(fingerprint)
            if existing_id is not None:
                job = self._jobs[existing_id]
                job.coalesced_submits += 1
                self.metrics.increment("coalesced")
                coalesced = True
            else:
                job = self._admit_job(spec, fingerprint)
                if isinstance(job, dict):
                    return job  # busy rejection
        # The wait (if any) happens outside the lock: _job_done needs the
        # lock to retire the in-flight entry before it sets job.done.
        return self._submit_response(job, wait, coalesced=coalesced)

    def _localize(self, spec: JobSpec) -> JobSpec:
        """Inject this server's directories into a spec it will run."""
        if spec.engine == "incremental" and spec.checkpoint_dir is None:
            # frames-incremental path: successive frame submits of one
            # trace digest share a persisted checkpoint under the cache
            # dir, so each pays only the per-frame delta.
            spec = replace(
                spec, checkpoint_dir=str(self._cache_dir / "checkpoints")
            )
        if spec.trace_ref is not None and spec.upload_dir is None:
            spec = replace(spec, upload_dir=str(self.uploads.directory))
        return spec

    def _route(self, spec: JobSpec) -> Optional[Tuple[str, str]]:
        """``(cache key, owning shard)`` when fleet routing applies."""
        ring = self._ring
        if ring is None or self._shard_id is None or len(ring) < 2:
            return None
        if spec.fault is not None:
            return None  # fault injection tests *this* shard's failure paths
        digest = self._probe_digest(spec)
        if digest is None:
            return None  # first sight of a workload: run here, replicate after
        key = cache_key(digest, spec.criteria, spec.engine, spec.frame)
        return key, ring.owner(key)

    def _peer(self, shard_id: str) -> ServiceClient:
        assert self._fleet is not None
        with self._lock:
            client = self._peers.get(shard_id)
            if client is None:
                info = self._fleet.shard(shard_id)
                client = ServiceClient(
                    info.endpoint,
                    connect_timeout_s=2.0,
                    auth_token=self._auth_token,
                )
                self._peers[shard_id] = client
        return client

    def _forward_submit(
        self, spec: JobSpec, owner: str, wait: bool
    ) -> Optional[Dict[str, Any]]:
        """Proxy a submit to the key's owner.

        Returns the owner's response (errors included — backpressure and
        spec failures propagate untouched), or ``None`` when the owner is
        unreachable, which tells the caller to serve the job locally.
        """
        peer = self._peer(owner)
        wire = spec.to_dict()
        # Directories are server-local; the owner injects its own.
        wire.pop("checkpoint_dir", None)
        wire.pop("upload_dir", None)
        try:
            if (
                spec.trace_ref is not None
                and self.uploads.has(spec.trace_ref)
                and not peer.has_trace(spec.trace_ref)
            ):
                peer.upload_trace(self.uploads.path(spec.trace_ref))
            response = peer.request(
                {"op": "submit", "spec": wire, "wait": wait, "forwarded": True},
                timeout_s=None,
            )
        except ServiceError as err:
            if err.code in ("unreachable", "transport"):
                self.metrics.increment("forward_failovers")
                return None
            return protocol.error(err.code, err.message)
        self.metrics.increment("forwarded")
        response["forwarded_by"] = self._shard_id
        return response

    def _admit_job(
        self, spec: JobSpec, fingerprint: str
    ) -> Union[Job, Dict[str, Any]]:
        """Cache-probe then enqueue one new job; caller holds the lock."""
        # Content-addressed fast path: a known digest whose result is
        # already cached never touches the queue.
        if spec.fault is None:
            digest = self._probe_digest(spec)
            if digest is not None:
                key = cache_key(digest, spec.criteria, spec.engine, spec.frame)
                found = self.cache.lookup(key)
                if found is not None:
                    payload, tier = found
                    job = self._new_job(spec, fingerprint)
                    job.state = "done"
                    job.outcome = f"cache-{tier}"
                    job.cache_tier = tier
                    job.result = payload
                    job.started_at = job.submitted_at
                    job.finished_at = time.perf_counter()
                    job.done.set()
                    self.metrics.outcome(f"cache-{tier}")
                    self.metrics.observe("total", 0.0)
                    return job

        job = self._new_job(spec, fingerprint)
        self._inflight[fingerprint] = job.id
        try:
            self._pool.submit_nowait(job)
        except queue.Full:
            del self._jobs[job.id]
            del self._inflight[fingerprint]
            self.metrics.increment("busy_rejected")
            return protocol.error(
                protocol.ERR_BUSY,
                f"job queue is full ({self._pool.queue_depth()} queued)",
            )
        return job

    def _new_job(self, spec: JobSpec, fingerprint: str) -> Job:
        self._next_id += 1
        job = Job(id=f"job-{self._next_id}", spec=spec, fingerprint=fingerprint)
        self._jobs[job.id] = job
        return job

    def _submit_response(
        self, job: Job, wait: bool, coalesced: bool = False
    ) -> Dict[str, Any]:
        if wait:
            job.done.wait()
        response = protocol.ok(coalesced=coalesced, **job.status_payload())
        if self._shard_id is not None:
            response["shard"] = self._shard_id
        return response

    # ------------------------------------------------------------------ #
    # Fleet coordination                                                 #
    # ------------------------------------------------------------------ #

    def _handle_ring(self) -> Dict[str, Any]:
        fleet = self._fleet.to_dict() if self._fleet is not None else None
        return protocol.ok(shard=self._shard_id, fleet=fleet)

    def _handle_handoff(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Ingest warm entries from a draining peer (or a replication put)."""
        entries = request.get("entries")
        if not isinstance(entries, list):
            return protocol.error(
                protocol.ERR_BAD_REQUEST, "handoff needs an entries list"
            )
        from ..trace.checkpoint import CHECKPOINT_SUFFIX

        accepted = 0
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            kind = entry.get("kind")
            if kind == "result":
                key = entry.get("key")
                payload = entry.get("payload")
                if (
                    isinstance(key, str)
                    and len(key) == 64
                    and isinstance(payload, dict)
                ):
                    self.cache.put(key, payload)
                    accepted += 1
            elif kind == "checkpoint":
                name = entry.get("name")
                data = entry.get("data")
                if not (
                    isinstance(name, str)
                    and Path(name).name == name  # no traversal
                    and name.endswith(CHECKPOINT_SUFFIX)
                    and isinstance(data, str)
                ):
                    continue
                try:
                    raw = base64.b64decode(data, validate=True)
                except ValueError:
                    continue
                ckpt_dir = self._cache_dir / "checkpoints"
                ckpt_dir.mkdir(parents=True, exist_ok=True)
                tmp = ckpt_dir / f".{name}.part"
                tmp.write_bytes(raw)
                os.replace(tmp, ckpt_dir / name)
                accepted += 1
        if accepted:
            self.metrics.increment("handoff_received", accepted)
        return protocol.ok(accepted=accepted)

    def _handle_drain(self) -> Dict[str, Any]:
        """Warm-replica handoff, then a graceful stop.

        Hot cache entries and incremental checkpoints ship to the shard
        that owns each key on the post-departure ring (the per-key ring
        successor), so the fleet's warm-hit rate survives the departure.
        """
        with self._lock:
            if self._draining:
                return protocol.ok(draining=True, handed_off=0, already=True)
            self._draining = True  # refuse new submits while handing off
        handed_off, failed = self._handoff_all()
        threading.Thread(
            target=self._shutdown,
            kwargs={"drain": True},
            name="service-drain",
            daemon=True,
        ).start()
        return protocol.ok(
            draining=True, handed_off=handed_off, handoff_failed=failed
        )

    def _handoff_all(self) -> Tuple[int, int]:
        """Ship hot state to post-departure owners; ``(sent, failed)``."""
        ring = self._ring
        if (
            ring is None
            or self._fleet is None
            or self._shard_id is None
            or len(ring) < 2
        ):
            return 0, 0
        reduced = ring.without(self._shard_id)
        batches: Dict[str, List[Dict[str, Any]]] = {}
        for key in self.cache.keys_hot_first()[:HANDOFF_MAX_ENTRIES]:
            payload = self.cache.peek(key)
            if payload is None:
                continue
            batches.setdefault(reduced.owner(key), []).append(
                {"kind": "result", "key": key, "payload": payload}
            )
        from ..trace.checkpoint import CHECKPOINT_SUFFIX

        ckpt_dir = self._cache_dir / "checkpoints"
        if ckpt_dir.is_dir():
            for path in sorted(ckpt_dir.iterdir()):
                if not path.name.endswith(CHECKPOINT_SUFFIX):
                    continue
                data = base64.b64encode(path.read_bytes()).decode("ascii")
                batches.setdefault(reduced.owner(path.name), []).append(
                    {"kind": "checkpoint", "name": path.name, "data": data}
                )
        sent = failed = 0
        for owner, entries in batches.items():
            peer = self._peer(owner)
            for start in range(0, len(entries), HANDOFF_BATCH):
                group = entries[start : start + HANDOFF_BATCH]
                try:
                    peer.request(
                        {"op": "handoff", "entries": group}, timeout_s=30.0
                    )
                    sent += len(group)
                except ServiceError:
                    failed += len(entries) - start
                    break
        if sent:
            self.metrics.increment("handoff_sent", sent)
        return sent, failed

    def _replicate(self, key: str, payload: Dict[str, Any]) -> None:
        """Push a locally-computed result to the shard that owns its key.

        Happens when a workload's digest was unknown at submit time (no
        routing possible); replication makes the *next* submit of the
        same question a warm hit on whichever shard the router picks.
        """
        ring = self._ring
        if ring is None or self._shard_id is None or len(ring) < 2:
            return
        owner = ring.owner(key)
        if owner == self._shard_id:
            return
        try:
            self._peer(owner).request(
                {
                    "op": "handoff",
                    "entries": [{"kind": "result", "key": key, "payload": payload}],
                },
                timeout_s=10.0,
            )
            self.metrics.increment("replicated")
        except ServiceError:
            self.metrics.increment("replicate_failed")

    # ------------------------------------------------------------------ #
    # Other ops                                                          #
    # ------------------------------------------------------------------ #

    def _find_job(self, request: Dict[str, Any]) -> Union[Job, Dict[str, Any]]:
        job_id = request.get("id")
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return protocol.error(protocol.ERR_NO_SUCH_JOB, f"no job {job_id!r}")
        return job

    def _handle_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job = self._find_job(request)
        if isinstance(job, dict):
            return job
        return protocol.ok(**job.status_payload())

    def _handle_wait(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job = self._find_job(request)
        if isinstance(job, dict):
            return job
        timeout_s = request.get("timeout_s")
        finished = job.done.wait(timeout=timeout_s)
        if not finished:
            return protocol.error(
                protocol.ERR_TIMEOUT, f"{job.id} still {job.state} after {timeout_s}s"
            )
        return protocol.ok(**job.status_payload())

    def _handle_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job = self._find_job(request)
        if isinstance(job, dict):
            return job
        if job.state != "done":
            job.cancel_event.set()
        return protocol.ok(id=job.id, state=job.state, cancelling=job.state != "done")

    def _handle_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        mode = request.get("mode", "drain")
        if mode not in ("drain", "now"):
            return protocol.error(
                protocol.ERR_BAD_REQUEST, f"unknown shutdown mode {mode!r}"
            )
        thread = threading.Thread(
            target=self._shutdown,
            kwargs={"drain": mode == "drain"},
            name="service-shutdown",
            daemon=True,
        )
        thread.start()
        return protocol.ok(draining=mode == "drain", stopping=True)

    def stats(self) -> Dict[str, Any]:
        """The stats endpoint: metrics snapshot + live gauges."""
        snapshot = self.metrics.snapshot()
        with self._lock:
            snapshot["queue_depth"] = self._pool.queue_depth()
            snapshot["running"] = self._pool.running()
            snapshot["workers"] = self._workers
            snapshot["jobs_tracked"] = len(self._jobs)
            snapshot["draining"] = self._draining
            ring = self._ring
        snapshot["cache"] = self.cache.stats()
        snapshot["uploads"] = {"count": len(self.uploads.digests())}
        if self._shard_id is not None:
            snapshot["shard"] = self._shard_id
        if ring is not None:
            snapshot["fleet"] = {
                "shards": list(ring.shard_ids),
                "vnodes": ring.vnodes,
            }
        return snapshot

    # ------------------------------------------------------------------ #
    # Worker-pool callbacks                                              #
    # ------------------------------------------------------------------ #

    def _job_started(self, job: Job) -> None:
        job.started_at = time.perf_counter()
        job.state = "running"
        self.metrics.observe("queue_wait", job.started_at - job.submitted_at)

    def _job_done(self, job: Job, attempt: Attempt, attempts: int) -> None:
        job.finished_at = time.perf_counter()
        job.state = "done"
        job.attempts = attempts
        if attempts > 1:
            self.metrics.increment("retries", attempts - 1)

        if attempt.kind == "ok":
            job.outcome = "ok"
            job.result = attempt.payload
            self._record_success(job, attempt.payload)
        elif attempt.kind == "error":
            job.outcome = "error"
            job.error = attempt.payload
        elif attempt.kind == "timeout":
            job.outcome = "timeout"
            job.error = {
                "code": protocol.ERR_TIMEOUT,
                "message": f"job exceeded its {job.spec.timeout_s or 'default'} "
                f"second budget",
            }
        elif attempt.kind == "crashed":
            job.outcome = "crashed"
            job.error = {
                "code": protocol.ERR_CRASHED,
                "message": f"worker process died (exit code {attempt.exitcode}) "
                f"on both attempts",
            }
        else:  # cancelled
            job.outcome = "cancelled"
            job.error = {
                "code": protocol.ERR_CANCELLED,
                "message": "job was cancelled",
            }

        self.metrics.outcome(job.outcome)
        self.metrics.observe("total", job.finished_at - job.submitted_at)
        timings = (attempt.payload or {}).get("timings", {})
        if "resolve_s" in timings:
            self.metrics.observe("resolve", timings["resolve_s"])
        if "slice_s" in timings:
            self.metrics.observe("slice", timings["slice_s"])

        with self._lock:
            if self._inflight.get(job.fingerprint) == job.id:
                del self._inflight[job.fingerprint]
        job.done.set()

    def _record_success(self, job: Job, payload: Dict[str, Any]) -> None:
        """Write-through to the content-addressed cache and digest memo."""
        if job.spec.fault is not None:
            return  # fault-injected runs must never poison the cache
        digest = payload.get("trace_digest")
        if not digest:
            return
        key = cache_key(digest, job.spec.criteria, job.spec.engine, job.spec.frame)
        self.cache.put(key, payload)
        if job.spec.workload is not None:
            self.memo.put(job.spec.workload, digest)
        self._replicate(key, payload)
