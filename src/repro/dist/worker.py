"""The ``worker`` backend: warm worker pools + JSON-lines protocol v2.

The backend dispatches campaign points to persistent
``repro-sim dist worker --stdio`` subprocesses speaking a line-oriented
JSON request/response protocol over stdin/stdout.  Since protocol v2
the dispatcher side is built around a :class:`WorkerPool` — a
*process-lifetime* pool of protocol workers that is shared across
``execute()`` calls and campaign resumes, so steady-state dispatch costs
a JSON round trip, not an interpreter spawn.  This is deliberately the
smallest protocol a *multi-host* dispatcher needs — a future SSH/socket
dispatcher reuses the exact same messages, only the transport changes.

Protocol (one JSON document per line, UTF-8):

* request ``{"id": N, "op": "run", "spec": {...}}`` — ``spec`` is a
  :class:`~repro.spec.RunSpec` dict; the worker executes it through the
  :func:`repro.run` facade and replies
  ``{"id": N, "ok": true, "result": {...}}`` with the
  :class:`~repro.pipeline.SimResult` as a plain dict;
* request ``{"id": N, "op": "preload", "bench": B, "seed": S,
  "records": R, "rtrace": <base64>}`` — ships one ``(bench, seed)``
  group's exported ``.rtrace`` bytes; the worker pins the decoded
  :class:`~repro.scenarios.rtrace.FrozenTrace` so every later point of
  that group replays the recorded committed path with zero
  regeneration.  The usual magic/CRC guards apply — corrupt payloads
  get an error reply and nothing is pinned;
* request ``{"id": N, "op": "batch-run", "specs": [{...}, ...]}`` —
  one round trip for a whole run of same-trace points; the reply is
  ``{"id": N, "ok": true, "results": [...]}`` with one
  ``{"ok": ..., "result"/"error": ...}`` item per spec, so a broken
  point fails alone instead of poisoning its batch;
* request ``{"id": N, "op": "stats"}`` — serving counters: points
  served, batches, trace-cache hits/misses, result-cache hits, pinned
  traces;
* request ``{"id": N, "op": "ping"}`` — liveness check; the reply echoes
  the protocol version;
* request ``{"id": N, "op": "shutdown"}`` — acknowledged reply, then the
  worker exits.  Closing the worker's stdin (EOF) shuts it down too.

Execution inside a warm worker is cached at two levels, both justified
by the determinism contract (every backend point-for-point identical to
serial): a preloaded :class:`~repro.scenarios.rtrace.FrozenTrace` is
replayed for any spec its recorded window covers, and a spec the worker
has already served is answered from a bounded result memo without
re-simulating — so re-running a campaign against a warm pool costs one
JSON round trip per batch, which is the entire point of keeping the
pool alive.

Any failure to *execute* a point (unknown scheme, simulation error...)
is an ``{"ok": false, "error": traceback}`` reply — deterministic, so it
is never retried.  A malformed request (bad JSON, unknown op, missing
``spec``) also gets an error reply and the worker keeps serving: one
corrupt line must not poison a long-lived worker.

Fault tolerance lives in the dispatcher: a worker that dies mid-batch or
exceeds the batch timeout is killed and replaced, and the batch is
retried (``retries`` times) on whichever worker next drains the queue —
safe precisely because execution is deterministic.  The dispatcher
captures each worker's stderr and attaches its tail to the failure
messages, so a crashing worker's traceback lands in the recorded error
instead of leaking to the console.

Because traces travel in-band, points are no longer affinity-bound to
the one worker that generated their workload: once a group's trace is
preloaded everywhere it is needed, an oversized group splits across idle
workers instead of idling them (``jobs`` above the group count now
helps rather than hurts).  Preloading also lifts the old scope limit on
runtime-registered workloads — the dispatcher exports whatever it can
resolve, so a trace registered via
:func:`repro.scenarios.register_trace` runs on protocol workers that
could never have resolved its name.

Two environment knobs exist purely for fault-injection tests and ops
drills: ``REPRO_DIST_CRASH_FLAG`` / ``REPRO_DIST_HANG_FLAG`` name flag
files; a worker that sees its flag file before executing a point
deletes the file and crashes (``os._exit``) or hangs
(``REPRO_DIST_HANG_SECONDS``, default 30) — exactly once, since the
flag is consumed.
"""

from __future__ import annotations

import atexit
import base64
import collections
import json
import os
import sys
import threading
import time
import traceback
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import DistError
from ..telemetry import get_logger, metrics, tracing
from .backends import (
    ExecutionBackend,
    Payload,
    coerce_jobs,
    coerce_retries,
    coerce_timeout,
    retries_from_env,
    timeout_from_env,
)
from .transport import (
    LineChannel,
    PeerClosed,
    PeerTimeout,
    SocketTransport,
    StdioTransport,
    listen_socket,
    parse_address,
    serve_socket_connection,
)

#: Protocol major version, echoed by ``ping`` replies.  v2 added
#: ``preload`` / ``batch-run`` / ``stats`` on top of v1's ``run``.
#: Telemetry rides as *optional* fields on v2 messages — a ``trace``
#: context on requests, per-item timings and a ``spans`` list on
#: replies — all read with ``.get()`` on both ends, so old and new
#: peers interoperate and the version stays 2.
PROTOCOL_VERSION = 2

_log = get_logger("dist.worker")


# ----------------------------------------------------------------------
# Worker side (runs inside `repro-sim dist worker --stdio`)
# ----------------------------------------------------------------------
def _fault_injection() -> None:
    """Consume a crash/hang flag file if one is configured and present."""
    crash = os.environ.get("REPRO_DIST_CRASH_FLAG")
    if crash and os.path.exists(crash):
        os.remove(crash)
        os._exit(3)
    hang = os.environ.get("REPRO_DIST_HANG_FLAG")
    if hang and os.path.exists(hang):
        os.remove(hang)
        import time

        time.sleep(float(os.environ.get("REPRO_DIST_HANG_SECONDS", "30")))


#: Most results a worker memoises (LRU).  Results are small (a few
#: dozen scalars), so this bounds memory without ever evicting within
#: one realistic campaign's working set.
RESULT_CACHE_LIMIT = 512


class WorkerState:
    """One worker process's serving state: caches + counters.

    ``traces`` maps ``(bench, seed)`` to ``(workload, usable_records)``
    where *usable_records* is the window length the dispatcher promised
    the trace covers (the export cushion is on top).  ``results`` is a
    bounded LRU of spec → result: execution is deterministic (the
    backends' core contract), so re-dispatching a spec this worker has
    already simulated — a campaign re-run or resume on a warm pool —
    is served from memory instead of re-simulated.  The counters feed
    the ``stats`` op, which the warm-pool tests use to prove reuse
    ("second execute spawns zero processes") and cache behaviour.
    """

    def __init__(self) -> None:
        self.traces: Dict[Tuple[str, int], Tuple[object, int]] = {}
        self.results: "collections.OrderedDict[str, object]" = (
            collections.OrderedDict()
        )
        self.points_served = 0
        self.batches = 0
        self.preloads = 0
        self.trace_cache_hits = 0
        self.trace_cache_misses = 0
        self.result_cache_hits = 0

    def stats(self) -> Dict[str, int]:
        return {
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "points_served": self.points_served,
            "batches": self.batches,
            "preloads": self.preloads,
            "preloaded_traces": len(self.traces),
            "trace_cache_hits": self.trace_cache_hits,
            "trace_cache_misses": self.trace_cache_misses,
            "result_cache_hits": self.result_cache_hits,
            "result_cache_size": len(self.results),
        }


def _execute_spec(spec_dict: dict, state: WorkerState):
    """Run one RunSpec dict, replaying a pinned trace when one covers it.

    A cache hit executes against the preloaded
    :class:`~repro.scenarios.rtrace.FrozenTrace` workload (zero
    regeneration, exactly the dirqueue worker's replay path); a miss
    falls back to by-name resolution through the :func:`repro.run`
    facade, which is where workloads the dispatcher never preloaded
    still work — or fail deterministically.

    Returns ``(result, timing)`` where *timing* attributes the point's
    cost (``elapsed_seconds`` always; the facade's resolve/simulate
    split when the point was actually simulated rather than memo-hit).
    """
    from ..spec.facade import execute, execute_resolved, last_timing
    from ..spec.specs import RunSpec

    spec = RunSpec.from_dict(spec_dict)
    _fault_injection()
    t0 = time.perf_counter()
    # Deterministic execution makes the result pure in the spec, so a
    # spec this worker has served before (campaign re-run/resume on a
    # warm pool) comes from the memo — dispatch cost, zero simulation.
    memo_key = json.dumps(
        spec.to_dict(), sort_keys=True, separators=(",", ":")
    )
    cached = state.results.get(memo_key)
    if cached is not None:
        state.results.move_to_end(memo_key)
        state.result_cache_hits += 1
        state.points_served += 1
        metrics.counter("worker.result_cache_hits").inc()
        metrics.counter("worker.points_served").inc()
        return cached, {
            "elapsed_seconds": round(time.perf_counter() - t0, 6)
        }
    pinned = state.traces.get((spec.bench, spec.seed))
    if pinned is not None and spec.warmup + spec.n_instructions <= pinned[1]:
        state.trace_cache_hits += 1
        metrics.counter("worker.trace_cache_hits").inc()
        result = execute_resolved(
            pinned[0],
            spec.scheme,
            spec.machine.resolve(),
            spec.n_instructions,
            spec.warmup,
            spec.seed,
        )
    else:
        state.trace_cache_misses += 1
        metrics.counter("worker.trace_cache_misses").inc()
        result = execute(spec)
    state.results[memo_key] = result
    if len(state.results) > RESULT_CACHE_LIMIT:
        state.results.popitem(last=False)
    state.points_served += 1
    metrics.counter("worker.points_served").inc()
    timing = {"elapsed_seconds": round(time.perf_counter() - t0, 6)}
    split = last_timing()
    if split:
        timing.update(split)
    metrics.histogram("worker.point_seconds").observe(
        timing["elapsed_seconds"]
    )
    return result, timing


def _handle_preload(request: dict, state: WorkerState) -> dict:
    from ..scenarios.rtrace import import_trace_bytes

    bench = str(request["bench"])
    seed = int(request["seed"])
    # Pin under the *requested* name: a dispatcher-side workload
    # registered under a different name than its recorded trace (via
    # register_trace) must still hit the cache for that name's points.
    # Every batch-run over this (bench, seed) group indexes the pinned
    # TraceColumns buffer the import decoded.
    wl = import_trace_bytes(
        base64.b64decode(request["rtrace"]),
        name=bench,
        origin="preload payload",
    )
    if wl.seed != seed:
        raise DistError(
            f"preload payload records seed {wl.seed}, "
            f"but the request names seed {seed}"
        )
    usable = int(request["records"])
    state.traces[(bench, seed)] = (wl, usable)
    state.preloads += 1
    metrics.counter("worker.preloads").inc()
    _log.debug("worker.preload", bench=bench, seed=seed, records=usable)
    return {"bench": bench, "seed": seed, "records": usable}


def handle_request(
    line: str, state: Optional[WorkerState] = None
) -> Tuple[Optional[dict], bool]:
    """Process one protocol line; returns ``(reply, keep_serving)``.

    Never raises: every failure mode becomes an error reply so the
    dispatcher can tell a *point* failure (deterministic, reported) from
    a *worker* failure (process death, retried).  *state* carries the
    trace cache and counters between requests; ``None`` serves the
    request statelessly (protocol v1 behaviour).
    """
    if state is None:
        state = WorkerState()
    request_id = None
    try:
        request = json.loads(line)
        if not isinstance(request, dict):
            raise ValueError(f"request must be an object, got {request!r}")
        request_id = request.get("id")
        op = request.get("op")
        if op == "ping":
            return {"id": request_id, "ok": True,
                    "protocol": PROTOCOL_VERSION}, True
        if op == "shutdown":
            return {"id": request_id, "ok": True, "bye": True}, False
        if op == "stats":
            return {"id": request_id, "ok": True, **state.stats()}, True
        if op == "preload":
            missing = [
                field
                for field in ("bench", "seed", "records", "rtrace")
                if field not in request
            ]
            if missing:
                raise ValueError(
                    f"preload request is missing {', '.join(missing)}"
                )
            return {
                "id": request_id, "ok": True,
                **_handle_preload(request, state),
            }, True
        if op == "batch-run":
            specs = request.get("specs")
            if not isinstance(specs, list):
                raise ValueError("batch-run request needs a 'specs' list")
            # The optional trace context: absent from old dispatchers,
            # ignored by old workers — the version stays 2 either way.
            span = tracing.start_span(
                "worker.batch",
                parent=request.get("trace"),
                pid=os.getpid(),
                points=len(specs),
            )
            items = []
            failed = 0
            for spec_dict in specs:
                try:
                    result, timing = _execute_spec(spec_dict, state)
                    items.append(
                        {"ok": True, "result": asdict(result), **timing}
                    )
                except Exception:  # noqa: BLE001 — per-point error item
                    failed += 1
                    items.append(
                        {"ok": False, "error": traceback.format_exc()}
                    )
            state.batches += 1
            metrics.counter("worker.batches").inc()
            if failed:
                span.annotate(failed=failed)
            record = span.end()
            reply = {"id": request_id, "ok": True, "results": items}
            if request.get("trace") is not None:
                # Ride the reply so the dispatcher's log holds the
                # worker's own span too (recorded on both ends).
                reply["spans"] = [record]
            return reply, True
        if op != "run":
            raise ValueError(f"unknown op {op!r}")
        if "spec" not in request:
            raise ValueError("run request is missing 'spec'")
        result, timing = _execute_spec(request["spec"], state)
        return {"id": request_id, "ok": True,
                "result": asdict(result), **timing}, True
    except Exception:  # noqa: BLE001 — every failure becomes a reply
        return {
            "id": request_id,
            "ok": False,
            "error": traceback.format_exc(),
        }, True


def serve_stdio(stdin=None, stdout=None) -> int:
    """Worker main loop: read requests line by line until EOF/shutdown."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    state = WorkerState()
    _log.info("worker.start", transport="stdio")
    for line in stdin:
        if not line.strip():
            continue
        reply, keep_serving = handle_request(line, state)
        stdout.write(json.dumps(reply, separators=(",", ":")) + "\n")
        stdout.flush()
        if not keep_serving:
            break
    return 0


def serve_listen(address, stdout=None) -> int:
    """Worker main loop for socket mode: serve dispatchers in turn.

    Binds *address* (``HOST:PORT``; port 0 picks an ephemeral port),
    announces the bound address on *stdout* so launchers can parse it,
    and accepts one dispatcher connection at a time.  One persistent
    :class:`WorkerState` serves every connection, so pinned traces and
    the result memo survive dispatcher reconnects — a restarted daemon
    reattaches to a still-warm worker.  A dispatcher disconnect just
    means "accept the next one"; only a ``shutdown`` op ends the loop.
    """
    sock = listen_socket(address)
    host, port = sock.getsockname()[:2]
    out = stdout if stdout is not None else sys.stdout
    out.write(f"listening on {host}:{port}\n")
    out.flush()
    state = WorkerState()
    _log.info("worker.start", transport="socket", address=f"{host}:{port}")
    try:
        while True:
            conn, _ = sock.accept()
            keep_serving = serve_socket_connection(
                conn, lambda line: handle_request(line, state)
            )
            if not keep_serving:
                return 0
    finally:
        sock.close()


# ----------------------------------------------------------------------
# Dispatcher side
# ----------------------------------------------------------------------
def worker_environment() -> Dict[str, str]:
    """Environment for spawned workers: this repro on the PYTHONPATH.

    The dispatcher may itself run from a source checkout that is not
    installed; workers must import the same code.
    """
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src if not existing else src + os.pathsep + existing
    )
    return env


def stdio_worker_command() -> List[str]:
    """Argv for one protocol worker subprocess."""
    return [sys.executable, "-m", "repro.cli", "dist", "worker", "--stdio"]


#: Backwards-compatible names for the transport failure pair: the whole
#: retry machinery below still speaks "worker died / worker timed out",
#: and tests monkeypatch these names.  Since the transport refactor they
#: *are* the transport exceptions — a socket FIN and a subprocess EOF
#: are the same event to the dispatcher.
_WorkerDied = PeerClosed
_WorkerTimeout = PeerTimeout


class _PoolWorker(LineChannel):
    """One pool slot's protocol channel plus its preload ledger."""

    def __init__(self, transport):
        super().__init__(transport)
        #: (bench, seed) -> usable records pinned on this worker; owned
        #: by the dispatcher thread currently driving the worker.
        self.preloaded: Dict[Tuple[str, int], int] = {}


# ----------------------------------------------------------------------
# Warm pools
# ----------------------------------------------------------------------
class WorkerPool:
    """A reusable fleet of protocol workers plus their preload caches.

    The pool owns three things the old spawn-per-execute backend paid
    for on every dispatch:

    * the worker subprocesses themselves (``spawned_total`` counts every
      spawn over the pool's lifetime, so tests can assert a second
      ``execute()`` spawned zero);
    * the dispatcher-side **trace payload cache** — each ``(bench,
      seed)`` group's ``.rtrace`` bytes are exported and base64-encoded
      once, then shipped to however many workers need them;
    * each worker's record of what it already holds
      (:attr:`_PoolWorker.preloaded`), so re-running a campaign
      re-sends nothing.

    Workers live in *slots*: slot *i* is driven by dispatcher thread *i*
    during an ``execute()``, and a worker that dies is replaced in its
    slot on demand.  Pools are cheap to create empty — processes only
    spawn when :meth:`ensure` / :meth:`worker_at` need them.

    *remote* adopts already-running listen-mode workers
    (``repro-sim dist worker --listen``) by ``HOST:PORT`` address: slot
    *i* for ``i < len(remote)`` is a socket connection to ``remote[i]``
    (re-established on demand after a drop; ``connects_total`` counts
    every successful connect) and only the slots beyond the remote list
    spawn local subprocesses.  The pool *borrows* remote workers — its
    :meth:`shutdown` closes their connections but leaves the processes
    listening for the next dispatcher, unless ``stop_remote=True``.
    """

    def __init__(
        self,
        command: Optional[Sequence[str]] = None,
        remote: Sequence[str] = (),
    ):
        self.command = list(command) if command else stdio_worker_command()
        self.remote: List[str] = [str(address) for address in remote]
        for address in self.remote:
            parse_address(address, source="remote worker address")
        self.spawned_total = 0
        self.connects_total = 0
        self._workers: List[Optional[_PoolWorker]] = []
        self._lock = threading.Lock()
        self._slot_locks: Dict[int, threading.RLock] = {}
        self._payloads: Dict[Tuple[str, int], Tuple[int, Optional[str]]] = {}
        self._payload_lock = threading.Lock()

    # -- worker lifecycle ----------------------------------------------
    def slot_lock(self, slot: int) -> threading.RLock:
        """The per-slot request lock.

        A slot's channel matches replies to requests by id, so only one
        thread may run a request cycle on it at a time.  Dispatcher
        threads hold their slot's lock per chunk; out-of-band users
        (``stats``, the serve daemon's heartbeat) try-acquire and skip
        busy slots instead of corrupting the stream.
        """
        with self._lock:
            lock = self._slot_locks.get(slot)
            if lock is None:
                lock = self._slot_locks[slot] = threading.RLock()
            return lock

    def _connect(self, slot: int) -> _PoolWorker:
        """Spawn (local slot) or connect (remote slot) a worker.

        Raises :class:`PeerClosed` when a remote slot's worker is not
        reachable — callers treat that like any other worker failure.
        """
        if slot < len(self.remote):
            worker = _PoolWorker(SocketTransport(self.remote[slot]))
            self.connects_total += 1
            metrics.counter("pool.connects_total").inc()
            _log.info(
                "pool.connect", slot=slot, address=self.remote[slot]
            )
            return worker
        self.spawned_total += 1
        metrics.counter("pool.spawned_total").inc()
        _log.info("pool.spawn", slot=slot)
        return _PoolWorker(
            StdioTransport(self.command, env=worker_environment())
        )

    def ensure(self, n: int) -> None:
        """Grow the pool to at least *n* live workers.

        Remote slots are best-effort here: a worker that is not up yet
        is retried on demand by :meth:`worker_at` (and its chunks are
        handed to reachable slots by the dispatcher's retry machinery).
        """
        with self._lock:
            while len(self._workers) < n:
                self._workers.append(None)
            for slot in range(n):
                worker = self._workers[slot]
                if worker is None or not worker.alive():
                    if worker is not None:
                        worker.close()
                        self._workers[slot] = None
                    try:
                        self._workers[slot] = self._connect(slot)
                    except PeerClosed:
                        if slot >= len(self.remote):
                            raise

    @property
    def size(self) -> int:
        """Live workers currently in the pool."""
        return sum(
            1 for w in self._workers if w is not None and w.alive()
        )

    def worker_at(self, slot: int) -> _PoolWorker:
        """The live worker in *slot*, spawning/reconnecting if needed.

        Raises :class:`PeerClosed` when a remote slot cannot be
        (re)connected.
        """
        with self._lock:
            while len(self._workers) <= slot:
                self._workers.append(None)
            worker = self._workers[slot]
            if worker is None or not worker.alive():
                if worker is not None:
                    worker.close()
                    self._workers[slot] = None
                worker = self._connect(slot)
                self._workers[slot] = worker
            return worker

    def discard(self, slot: int) -> None:
        """Close and forget the worker in *slot* (it died or hung)."""
        with self._lock:
            if slot < len(self._workers) and self._workers[slot] is not None:
                self._workers[slot].close()
                self._workers[slot] = None
                metrics.counter("pool.discards_total").inc()
                _log.warning("pool.discard", slot=slot)

    def shutdown(self, stop_remote: bool = False) -> None:
        """Stop every local worker and empty the pool.

        Remote workers only get their connection closed (they go back to
        listening for the next dispatcher) unless *stop_remote* sends
        them the ``shutdown`` op too — that is the serve daemon's
        stop-the-fleet path.
        """
        with self._lock:
            workers, self._workers = self._workers, []
        for slot, worker in enumerate(workers):
            if worker is None:
                continue
            try:
                if worker.alive() and (
                    stop_remote or slot >= len(self.remote)
                ):
                    worker.request("shutdown", timeout=2)
            except (_WorkerDied, _WorkerTimeout):
                pass
            worker.close()

    # -- trace payloads ------------------------------------------------
    def trace_payload(
        self, key: Tuple[str, int], needed: int
    ) -> Optional[Tuple[int, str]]:
        """``(records, base64)`` for group *key*, exported at most once.

        Returns ``None`` when the dispatcher cannot materialise the
        trace (unknown bench, generator error...) — the worker then
        falls back to by-name resolution, which reports the same
        problem deterministically if it is real.  Failed exports are
        cached too, so a campaign over an unresolvable bench does not
        re-attempt the export per chunk.
        """
        bench, seed = key
        with self._payload_lock:
            cached = self._payloads.get(key)
            if cached is not None and cached[0] >= needed:
                return None if cached[1] is None else cached
            try:
                from ..scenarios.rtrace import export_trace_bytes
                from ..workloads import workload

                data, _ = export_trace_bytes(
                    workload(bench, seed=seed), needed
                )
            except Exception:  # noqa: BLE001 — preload is best-effort
                self._payloads[key] = (needed, None)
                return None
            entry = (needed, base64.b64encode(data).decode("ascii"))
            self._payloads[key] = entry
            return entry

    # -- observability -------------------------------------------------
    def stats(self, timeout: Optional[float] = 10) -> Dict[str, object]:
        """Pool totals plus each worker's ``stats`` op reply.

        Every entry carries the transport/address columns, so remote and
        local workers are distinguishable in status displays; a remote
        slot that is currently unreachable still appears (``alive``
        false), and a slot busy serving a dispatcher thread is reported
        ``busy`` instead of having its reply stream corrupted.
        """
        per_worker: List[Dict[str, object]] = []
        with self._lock:
            workers = list(enumerate(self._workers))
        for slot, worker in workers:
            if worker is None or not worker.alive():
                if slot < len(self.remote):
                    per_worker.append({
                        "transport": "socket",
                        "address": self.remote[slot],
                        "alive": False,
                    })
                continue
            lock = self.slot_lock(slot)
            if not lock.acquire(timeout=0.5):
                per_worker.append({**worker.describe(), "busy": True})
                continue
            try:
                reply = worker.request("stats", timeout=timeout)
            except (_WorkerDied, _WorkerTimeout):
                continue
            finally:
                lock.release()
            if reply.get("ok"):
                per_worker.append({
                    **worker.describe(),
                    **{k: v for k, v in reply.items()
                       if k not in ("id", "ok")},
                })
        def total(field: str) -> int:
            return sum(int(w.get(field, 0)) for w in per_worker)

        return {
            "size": self.size,
            "spawned_total": self.spawned_total,
            "connects_total": self.connects_total,
            "remote_addresses": list(self.remote),
            "trace_payloads": len(self._payloads),
            "points_served": total("points_served"),
            "batches": total("batches"),
            "preloads": total("preloads"),
            "trace_cache_hits": total("trace_cache_hits"),
            "trace_cache_misses": total("trace_cache_misses"),
            "result_cache_hits": total("result_cache_hits"),
            "workers": per_worker,
        }


#: Process-lifetime pools shared by every warm WorkerBackend, keyed by
#: worker argv + remote fleet so test backends with injected commands or
#: different remote addresses never share workers.  Torn down atexit.
_SHARED_POOLS: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], WorkerPool] = {}
_SHARED_POOLS_LOCK = threading.Lock()


def shared_pool(
    command: Optional[Sequence[str]] = None,
    remote: Sequence[str] = (),
) -> WorkerPool:
    """The process-wide :class:`WorkerPool` for *command* (created lazily).

    This is what makes the warm backend warm across ``execute()`` calls,
    campaign resumes and repeated :func:`repro.run` invocations in one
    process: every ``WorkerBackend(warm=True)`` resolves to the same
    pool, whose workers and preloaded traces survive between campaigns.
    """
    argv = tuple(command) if command else tuple(stdio_worker_command())
    key = (argv, tuple(str(address) for address in remote))
    with _SHARED_POOLS_LOCK:
        pool = _SHARED_POOLS.get(key)
        if pool is None:
            pool = WorkerPool(list(argv), remote=list(key[1]))
            _SHARED_POOLS[key] = pool
        return pool


def shutdown_shared_pools() -> None:
    """Stop every shared pool's workers (registered atexit)."""
    with _SHARED_POOLS_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_shared_pools)


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
#: Distinguishes "argument not given" (fall back to the environment
#: knob) from an explicit ``timeout=None`` (wait forever).
_UNSET = object()

#: A unit of dispatch: one same-trace chunk plus its retry count and the
#: trace context of the attempt that failed before it (``None`` for a
#: first attempt) — a retry's dispatch span nests under the failure it
#: is retrying, so ``trace show`` renders retries as child spans.
_Chunk = Tuple[
    int, Tuple[str, int], int, List[Tuple[int, object]], Optional[dict]
]


class _TaskBoard:
    """Per-slot chunk lists with work stealing.

    Each dispatcher thread drains its own slot's list first (keeping
    chunk→worker affinity deterministic run over run, which is what
    makes the workers' caches effective on a re-run) and steals from
    the fullest other slot once its own is empty.  Only slots whose
    thread has already asked for work are stolen from, so a thread
    that starts late still gets its own first chunk.
    """

    def __init__(self, n_slots: int):
        self._pending: List[List[_Chunk]] = [[] for _ in range(n_slots)]
        self._started = [False] * n_slots
        self._lock = threading.Lock()

    def put(self, slot: int, chunk: _Chunk) -> None:
        with self._lock:
            self._pending[slot].append(chunk)

    def put_next(self, slot: int, chunk: _Chunk) -> None:
        """Queue *chunk* on the slot after *slot* (mod the slot count).

        Used when *slot*'s worker is unreachable: the chunk must land
        where a different (hopefully live) worker will drain or steal
        it, not back on the slot that just failed.
        """
        with self._lock:
            self._pending[(slot + 1) % len(self._pending)].append(chunk)

    def take(self, slot: int) -> Optional[_Chunk]:
        with self._lock:
            self._started[slot] = True
            if self._pending[slot]:
                return self._pending[slot].pop(0)
            victim = max(
                (p for p, on in zip(self._pending, self._started) if on),
                key=len,
            )
            if victim:
                return victim.pop()
            return None


def _chunks_for_groups(
    groups: Sequence[Sequence[Tuple[int, object]]], n_workers: int
) -> List[_Chunk]:
    """Split shared-trace groups into dispatchable same-trace chunks.

    Each chunk stays inside one ``(bench, seed)`` group (one preload
    covers it), but a group larger than its fair share is split so idle
    workers help instead of watching — the fix for the jobs>groups
    inversion.  The chunk count per group is proportional to the
    group's weight in the grid, at least 1, at most the group size.
    """
    total = sum(len(group) for group in groups)
    chunks: List[_Chunk] = []
    for group in groups:
        needed = max(
            point.warmup + point.n_instructions for _, point in group
        )
        key = group[0][1].trace_key
        n_chunks = max(1, round(n_workers * len(group) / total))
        n_chunks = min(n_chunks, len(group))
        base, extra = divmod(len(group), n_chunks)
        start = 0
        for i in range(n_chunks):
            size = base + (1 if i < extra else 0)
            chunks.append(
                (0, key, needed, list(group[start:start + size]), None)
            )
            start += size
    return chunks


class WorkerBackend(ExecutionBackend):
    """Dispatch points to a (warm) pool of protocol workers.

    Parameters
    ----------
    timeout:
        Per-point reply timeout in seconds (``None`` = wait forever).
        Batches get ``timeout * len(batch)``; a timed-out worker is
        killed and the batch retried.  Defaults to the
        ``REPRO_DIST_TIMEOUT`` environment knob (itself default
        "no timeout").
    retries:
        How many *additional* attempts a chunk of points gets after a
        worker death or timeout.  Error replies are deterministic
        failures and are never retried.  Defaults to the
        ``REPRO_DIST_RETRIES`` environment knob (itself default 1).
    command:
        Override the worker argv (tests inject crashing commands).
    remote:
        ``HOST:PORT`` addresses of already-running listen-mode workers
        to adopt.  The first ``len(remote)`` pool slots connect there
        instead of spawning subprocesses; set ``jobs`` to the remote
        count to use only remote workers.
    warm:
        ``True`` (default): dispatch through the process-lifetime
        :func:`shared_pool`, whose workers and preloaded traces persist
        across ``execute()`` calls — steady-state dispatch costs a JSON
        round trip.  ``False``: spawn a private pool for this call and
        shut it down afterwards (the old cold-spawn behaviour, kept
        measurable for the benchmark trajectory).
    pool:
        An explicit :class:`WorkerPool` to dispatch through (overrides
        *warm*; the caller owns its lifetime).  Fault-injection tests
        use this to control exactly when workers spawn.
    """

    name = "worker"
    #: Preloaded traces free points from group affinity, so the engine
    #: may size parallelism by points, not by shared-trace groups.
    splits_groups = True

    def __init__(
        self,
        timeout=_UNSET,
        retries=_UNSET,
        command: Optional[Sequence[str]] = None,
        remote: Sequence[str] = (),
        warm: bool = True,
        pool: Optional[WorkerPool] = None,
    ):
        self.timeout = (
            timeout_from_env() if timeout is _UNSET
            else coerce_timeout(timeout)
        )
        self.retries = (
            retries_from_env() if retries is _UNSET
            else coerce_retries(retries)
        )
        self.command = list(command) if command else stdio_worker_command()
        self.remote = [str(address) for address in remote]
        for address in self.remote:
            parse_address(address, source="remote worker address")
        self.warm = bool(warm)
        self.pool = pool

    def _resolve_pool(self) -> Tuple[WorkerPool, bool]:
        """The pool to dispatch through and whether this call owns it."""
        if self.pool is not None:
            return self.pool, False
        if self.warm:
            return shared_pool(self.command, remote=self.remote), False
        return WorkerPool(self.command, remote=self.remote), True

    def execute(self, points, jobs: int = 1) -> Payload:
        from ..analysis.campaign import grouped_points

        jobs = coerce_jobs(jobs)
        groups = grouped_points(points)
        if not groups:
            return []
        n_workers = min(jobs, len(points))
        pool, owned = self._resolve_pool()
        # Chunk i is affine to slot i % n_workers: re-running the same
        # grid sends each spec back to the worker that served it last
        # time (whose memo and pinned trace cover it).  Idle dispatcher
        # threads steal from the busiest slot, so affinity never leaves
        # a worker idle while work remains.
        tasks = _TaskBoard(n_workers)
        for i, chunk in enumerate(_chunks_for_groups(groups, n_workers)):
            tasks.put(i % n_workers, chunk)
        results: Dict[int, object] = {}
        errors: Dict[int, str] = {}
        metas: Dict[int, dict] = {}
        # The ambient campaign span, captured on this thread — drain
        # threads get its wire context explicitly (thread-locals do not
        # cross thread starts).
        parent_ctx = tracing.current_context()
        try:
            pool.ensure(n_workers)
            threads = [
                threading.Thread(
                    target=self._drain,
                    args=(pool, slot, tasks, results, errors, metas,
                          parent_ctx),
                )
                for slot in range(n_workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            if owned:
                pool.shutdown()
        missing = [
            index
            for index, _ in (pair for group in groups for pair in group)
            if index not in results and index not in errors
        ]
        if missing:
            raise DistError(
                f"worker backend lost {len(missing)} point(s) "
                f"(indexes {missing[:5]}...)"
            )
        return [
            (index, results.get(index), errors.get(index),
             metas.get(index))
            for group in groups
            for index, _ in group
        ]

    # ------------------------------------------------------------------
    def _preload(
        self,
        pool: WorkerPool,
        worker: _PoolWorker,
        key: Tuple[str, int],
        needed: int,
        parent: Optional[tracing.Span] = None,
    ) -> None:
        """Pin *key*'s trace on *worker* unless it already covers it.

        Export failures downgrade to by-name resolution; worker
        death/timeout propagates so the chunk is retried like any other
        worker failure.  When a preload is actually sent it gets its own
        span under the dispatch span, so ``trace show`` attributes
        first-touch trace-shipping cost separately from the batch.
        """
        if worker.preloaded.get(key, -1) >= needed:
            return
        payload = pool.trace_payload(key, needed)
        if payload is None:
            return
        records, encoded = payload
        span = tracing.start_span(
            "preload", parent=parent, bench=key[0], seed=key[1],
            records=records,
        )
        try:
            reply = worker.request(
                "preload",
                timeout=self.timeout,
                trace=span.context(),
                bench=key[0],
                seed=key[1],
                records=records,
                rtrace=encoded,
            )
        except Exception as err:
            span.end(status="error", error=str(err))
            raise
        span.end()
        if reply.get("ok"):
            worker.preloaded[key] = records

    def _drain(
        self, pool, slot, tasks, results, errors, metas, parent_ctx
    ) -> None:
        """One dispatcher thread: drive the worker in *slot* over chunks.

        Every attempt at a chunk is one ``dispatch`` span: first
        attempts hang off the campaign span (*parent_ctx*), retries hang
        off the failed attempt's span, so the trace tree shows exactly
        which failure each retry answered.  The span's context rides the
        ``batch-run`` request, making the worker's own span its child.
        """
        from ..analysis.campaign import _result_from_dict

        while True:
            task = tasks.take(slot)
            if task is None:
                return
            attempts, key, needed, chunk, retry_of = task
            span = tracing.start_span(
                "dispatch",
                parent=retry_of or parent_ctx,
                slot=slot,
                attempt=attempts + 1,
                bench=key[0],
                seed=key[1],
                points=len(chunk),
            )
            metrics.counter("dispatch.chunks_total").inc()
            try:
                worker = pool.worker_at(slot)
            except _WorkerDied as err:
                # Remote slot with no reachable worker.  Hand the chunk
                # to the next slot so a live worker drains or steals it
                # (the brief pause keeps this thread from stealing it
                # straight back before anyone else can), and burn an
                # attempt so a fully unreachable fleet terminates with
                # per-point errors instead of looping.
                span.end(status="error", error=str(err))
                if attempts < self.retries:
                    metrics.counter("dispatch.retries_total").inc()
                    tasks.put_next(
                        slot,
                        (attempts + 1, key, needed, chunk, span.context()),
                    )
                    time.sleep(0.2)
                else:
                    message = (
                        f"worker failed after {attempts + 1} "
                        f"attempt(s): {type(err).__name__}: {err} "
                        f"[trace {span.trace_id}]"
                    )
                    for index, _ in chunk:
                        errors[index] = message
                continue
            batch_span = None
            try:
                with pool.slot_lock(slot):
                    self._preload(pool, worker, key, needed, parent=span)
                    batch_timeout = (
                        self.timeout * len(chunk)
                        if self.timeout is not None
                        else None
                    )
                    batch_span = span.child("batch-run", points=len(chunk))
                    reply = worker.request(
                        "batch-run",
                        timeout=batch_timeout,
                        trace=batch_span.context(),
                        specs=[
                            point.spec().to_dict() for _, point in chunk
                        ],
                    )
            except (_WorkerDied, _WorkerTimeout) as err:
                pool.discard(slot)
                if batch_span is not None:
                    batch_span.end(status="error", error=type(err).__name__)
                span.end(status="error", error=str(err))
                _log.warning(
                    "dispatch.worker-failed",
                    slot=slot,
                    attempt=attempts + 1,
                    trace_id=span.trace_id,
                    error=f"{type(err).__name__}: {err}"[:300],
                )
                if attempts < self.retries:
                    metrics.counter("dispatch.retries_total").inc()
                    # Retried chunk goes back on this slot's list so
                    # its replacement worker (or a stealing peer) can
                    # pick it up.
                    tasks.put(
                        slot,
                        (attempts + 1, key, needed, chunk, span.context()),
                    )
                else:
                    message = (
                        f"worker failed after {attempts + 1} "
                        f"attempt(s): {type(err).__name__}: {err} "
                        f"[trace {span.trace_id}]"
                    )
                    for index, _ in chunk:
                        errors[index] = message
                continue
            # Worker-side spans ride the reply; record them here so the
            # dispatcher's log holds the whole tree even for remote
            # workers whose own log lives on another host.
            for record in reply.get("spans") or ():
                tracing.record_span(record)
            batch_span.end()
            if not reply.get("ok"):
                # A malformed batch reply is deterministic: report it
                # for every point rather than retrying forever.
                span.end(status="error", error="worker error reply")
                message = str(reply.get("error", "worker error reply"))
                for index, _ in chunk:
                    errors[index] = message
                continue
            span.end()
            items = reply.get("results") or []
            for (index, _), item in zip(chunk, items):
                if item.get("ok"):
                    results[index] = _result_from_dict(
                        dict(item["result"])
                    )
                    timing = {
                        k: item[k]
                        for k in ("elapsed_seconds", "resolve_seconds",
                                  "simulate_seconds")
                        if k in item
                    }
                    if timing:
                        metas[index] = timing
                else:
                    errors[index] = str(
                        item.get("error", "worker error reply")
                    )
