"""Scheduler backends: *how* the evaluation engine executes cell groups.

The :class:`~repro.experiments.engine.EvaluationEngine` reduces a spec to a
list of picklable *group payloads* (one per (world, seed, mechanism) — see
``engine._evaluate_group``) and hands them to a :class:`SchedulerBackend`:

* :class:`SerialBackend` — evaluate in-process, in order.
* :class:`MultiprocessingBackend` — the historical ``multiprocessing.Pool``
  fan-out (fork where available).
* :class:`WorkQueueBackend` — a fleet-capable work queue: a TCP manager
  serves a task queue and a result queue, worker processes — local
  subprocesses the backend spawns, or remote interpreters bootstrapped with
  ``python -m repro.experiments.worker --connect host:port`` — claim
  *batches* of pickled payloads and push their rows back.  Liveness is
  heartbeat-based (a frozen or killed host is evicted in seconds, its
  claimed tasks requeued under a bounded budget).

Every backend only computes rows; the engine alone writes them into its cell
cache.

All backends return results in payload order and execute the exact same
``_evaluate_group`` code, so rows are bitwise-identical across backends (the
backend, store and fleet legs of the ``equivalence`` CI job and
``tests/test_backends.py`` pin this).

Backends are selectable by spec string wherever the engine is constructed::

    EvaluationEngine(backend="serial")
    EvaluationEngine(backend="multiprocessing:workers=4")
    EvaluationEngine(backend="work-queue:workers=4")
    EvaluationEngine(backend="work-queue:bind=0.0.0.0,advertise=10.0.0.5,workers=0")

The last form is a *fleet coordinator*: it binds every interface, spawns no
local workers, and waits for remote hosts to connect with the one-line
bootstrap (the authkey travels via the :data:`AUTHKEY_ENV` environment
variable, never on the command line)::

    REPRO_WORKQUEUE_AUTHKEY=<hex> python -m repro.experiments.worker \
        --connect 10.0.0.5:9000
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import secrets
import socket
import subprocess
import sys
import threading
import time
from multiprocessing.managers import BaseManager
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type

__all__ = [
    "SchedulerBackend",
    "SerialBackend",
    "MultiprocessingBackend",
    "WorkQueueBackend",
    "WorkQueueError",
    "make_backend",
    "AUTHKEY_ENV",
    "CRASH_ENV",
]

#: Environment variable carrying the work-queue authkey (hex) to workers.
AUTHKEY_ENV = "REPRO_WORKQUEUE_AUTHKEY"

#: Fault-injection hook: a worker started with this set misbehaves on its
#: first batch — ``"claim"`` exits hard right *after* sending the claim
#: message, ``"pre-claim"`` right after pulling the batch but *before*
#: claiming it (the lost-in-claim-window case), ``"freeze"`` stops
#: heartbeating and hangs forever while the process stays alive (the frozen
#: remote host only heartbeat eviction can catch).  How the CI equivalence
#: job and the tests exercise the recovery paths.
CRASH_ENV = "REPRO_WORKQUEUE_CRASH_ON_CLAIM"

GroupResult = List[Tuple[int, Dict[str, Any]]]


def _evaluate(payload: Tuple) -> GroupResult:
    from .engine import _evaluate_group

    return _evaluate_group(payload)


class SchedulerBackend:
    """Executes group payloads; returns one result list per payload, in order.

    ``cell_keys`` and ``cache`` are accepted and ignored: the benchmark's
    ``perfbench/spans.py`` ``BenchBackend`` still forwards both keywords.
    """

    name: str = "?"

    def map_groups(
        self,
        payloads: Sequence[Tuple],
        cell_keys: Any = None,
        cache: Any = None,
    ) -> List[GroupResult]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(SchedulerBackend):
    """In-process, in-order evaluation (the ``workers=1`` path)."""

    name = "serial"

    def map_groups(
        self,
        payloads: Sequence[Tuple],
        cell_keys: Any = None,
        cache: Any = None,
    ) -> List[GroupResult]:
        return [_evaluate(payload) for payload in payloads]


class MultiprocessingBackend(SchedulerBackend):
    """The historical ``multiprocessing.Pool`` fan-out.

    Prefers ``fork`` (no re-import cost, inherits the loaded registries) and
    falls back to the platform default where fork is unavailable.  A single
    payload — or ``workers=1`` — short-circuits to in-process evaluation.
    """

    name = "multiprocessing"

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)

    def map_groups(
        self,
        payloads: Sequence[Tuple],
        cell_keys: Any = None,
        cache: Any = None,
    ) -> List[GroupResult]:
        if self.workers <= 1 or len(payloads) <= 1:
            return [_evaluate(payload) for payload in payloads]
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        with context.Pool(min(self.workers, len(payloads))) as pool:
            return pool.map(_evaluate, payloads)

    def __repr__(self) -> str:
        return f"MultiprocessingBackend(workers={self.workers})"


class WorkQueueError(RuntimeError):
    """A work-queue run could not complete; carries structured failure info.

    Attributes
    ----------
    failures:
        One dict per undeliverable or failed task:
        ``{"task": int, "attempts": int, "workers": [ids], "reason": str}``.
    """

    def __init__(self, message: str, failures: List[Dict[str, Any]]) -> None:
        super().__init__(message)
        self.failures = failures


def _make_queue_manager(
    task_queue: "queue.Queue", result_queue: "queue.Queue"
) -> Type[BaseManager]:
    """A fresh manager class per run: serves the two queues over TCP.

    The class is local so concurrent :class:`WorkQueueBackend` runs never
    share a registry (``BaseManager.register`` mutates the *class*).
    """

    class _QueueManager(BaseManager):
        pass

    _QueueManager.register("get_task_queue", callable=lambda: task_queue)
    _QueueManager.register("get_result_queue", callable=lambda: result_queue)
    return _QueueManager


def _accept_until_stopped(server: Any) -> None:
    """The manager server's accept loop, ending once the server is stopped.

    Runs in place of the stdlib ``Server.serve_forever`` and its
    ``accepter``.  The accepter retries ``accept()`` on every ``OSError``:
    after :meth:`WorkQueueBackend._shutdown` closes the listener that retry
    spins at full CPU for the life of the process, holding the interpreter
    lock against everything the process runs next.  ``serve_forever``
    resets ``sys.stdout``/``sys.stderr`` to the interpreter's originals when
    it stops, clobbering any redirect the caller has in place.  The caller
    sets ``server.stop_event`` before starting this loop; a connection
    accepted once it is set (the wake-up :func:`_wake_accept_loop` sends)
    is closed unserved and ends the loop.
    """
    while True:
        try:
            conn = server.listener.accept()
        except OSError:
            if server.stop_event.is_set():
                return
            continue
        if server.stop_event.is_set():
            conn.close()
            return
        threading.Thread(target=server.handle_request, args=(conn,), daemon=True).start()


def _wake_accept_loop(server: Any, accept_thread: threading.Thread) -> None:
    """Stop :func:`_accept_until_stopped` and join its thread.

    Closing the listener does not wake a thread blocked in ``accept()``, so
    a throwaway connection does.
    """
    server.stop_event.set()
    host, port = server.address[:2]
    if host in ("0.0.0.0", "::", ""):
        host = "::1" if ":" in host else "127.0.0.1"
    try:
        with socket.create_connection((host, port), timeout=1.0):
            pass
    except OSError:
        pass  # nothing listens any more: the loop has already returned
    accept_thread.join(timeout=5.0)
    server.listener.close()


#: One task entry on the wire: ``(task_id, pickled_payload)``.  Task-queue
#: items are *batches*: lists of entries claimed in one round-trip.
TaskEntry = Tuple[int, bytes]


class WorkQueueBackend(SchedulerBackend):
    """A fleet-capable work queue over TCP (local subprocesses or real hosts).

    The coordinator starts a :class:`multiprocessing.managers.BaseManager`
    server on ``(bind_host, port)`` exposing a task queue and a result queue,
    enqueues every payload *pickled* in batches of ``batch`` entries, and
    launches ``workers`` fresh local interpreters via
    ``sys.executable -m repro.experiments.worker --connect advertise:port``
    — the exact bootstrap a remote host uses, so the local and multi-host
    paths are one code path.  ``workers=0`` spawns nothing and waits for
    remote workers to connect (the fleet-coordinator mode).

    Liveness is heartbeat-based: every worker runs a heartbeat thread that
    stamps the result queue every ``heartbeat_s`` seconds (claims and results
    also count as heartbeats).  A worker holding claimed tasks that
    has not been heard from for ``heartbeat_timeout_s`` is *evicted* — its
    process is killed if local, its claimed tasks are requeued at most
    ``max_requeues`` times, and the eviction is recorded in
    :attr:`last_stats` — so a frozen or unplugged host costs seconds, not
    the whole run ``timeout_s``.  Local worker process exits are detected
    by ``poll()`` even faster.  In-task Python exceptions are *not* retried
    (they are deterministic); they re-raise in the coordinator with the
    worker traceback.

    Workers ship every finished row back; they never touch the engine's
    cell cache.

    After a successful run :attr:`last_stats` holds::

        {
          "worker_cell_counts": {worker_id: n_cells},
          "requeues": int, "workers_crashed": int,
          "heartbeat_evictions": int,
          "evictions": [{"worker", "detected", "tasks"}],
          "workers_seen": int, "task_batches": int,
          "address": {"bind", "advertise", "port"},
        }

    A worker can also die *between* pulling a batch and sending its claim —
    then the tasks are in neither the queue nor the claim table.  Once every
    unclaimed pending task has been missing from the queue for longer than
    ``claim_grace_s`` (claims normally arrive within milliseconds), those
    tasks are requeued under the same budget instead of hanging until the
    timeout.

    ``fault_injection`` is a test/CI hook: ``"crash-once"`` starts the
    *initial* workers with :data:`CRASH_ENV` set (they die right after their
    first claim; replacements are clean), ``"crash-always"`` poisons
    replacements too, which exhausts the requeue budget deterministically,
    ``"crash-pre-claim"`` makes the initial workers die in the claim window
    (batch pulled, never claimed), and ``"freeze-once"`` makes them claim a
    batch, stop heartbeating and hang — alive to ``poll()``, dead to the
    heartbeat — so only eviction can recover the run.
    """

    name = "work-queue"

    _FAULT_MODES = {
        None: (None, None),
        "crash-once": ("claim", None),
        "crash-always": ("claim", "claim"),
        "crash-pre-claim": ("pre-claim", None),
        "freeze-once": ("freeze", None),
    }

    def __init__(
        self,
        workers: int = 2,
        max_requeues: int = 1,
        timeout_s: Optional[float] = 600.0,
        poll_interval_s: float = 0.05,
        claim_grace_s: float = 1.0,
        fault_injection: Optional[str] = None,
        bind_host: str = "127.0.0.1",
        advertise_host: Optional[str] = None,
        port: int = 0,
        batch: int = 1,
        heartbeat_s: float = 1.0,
        heartbeat_timeout_s: float = 10.0,
        log_dir: Optional[str] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be at least 0 (0 = remote workers only)")
        if fault_injection not in self._FAULT_MODES:
            choices = ", ".join(repr(k) for k in self._FAULT_MODES if k)
            raise ValueError(
                f"unknown fault_injection {fault_injection!r}; choose None, {choices}"
            )
        if batch < 1:
            raise ValueError("batch must be at least 1")
        if heartbeat_s <= 0 or heartbeat_timeout_s <= heartbeat_s:
            raise ValueError(
                "need 0 < heartbeat_s < heartbeat_timeout_s, got "
                f"{heartbeat_s} / {heartbeat_timeout_s}"
            )
        self.workers = int(workers)
        self.max_requeues = int(max_requeues)
        self.timeout_s = timeout_s
        self.poll_interval_s = float(poll_interval_s)
        self.claim_grace_s = float(claim_grace_s)
        self.fault_injection = fault_injection
        self.bind_host = str(bind_host)
        if advertise_host is None:
            # Binding every interface still needs a concrete address workers
            # can dial; loopback is the only universally correct default.
            advertise_host = "127.0.0.1" if bind_host in ("0.0.0.0", "::") else bind_host
        self.advertise_host = str(advertise_host)
        self.port = int(port)
        self.batch = int(batch)
        self.heartbeat_s = float(heartbeat_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.log_dir = log_dir
        self.last_stats: Dict[str, Any] = {}

    # -- worker process management ------------------------------------------------

    @staticmethod
    def _worker_env(authkey_hex: str, crash: Optional[str]) -> Dict[str, str]:
        env = dict(os.environ)
        # The worker interpreter must resolve the same `repro` package as the
        # parent regardless of how the parent found it (installed, src/ on
        # PYTHONPATH, ...): prepend the package root explicitly.
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        parts = [package_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        env[AUTHKEY_ENV] = authkey_hex
        if crash:
            env[CRASH_ENV] = crash
        else:
            env.pop(CRASH_ENV, None)
        return env

    def _spawn_worker(
        self, worker_id: str, port: int, authkey_hex: str, crash: Optional[str]
    ) -> subprocess.Popen:
        argv = [
            sys.executable,
            "-m",
            "repro.experiments.worker",
            "--connect",
            f"{self.advertise_host}:{port}",
            "--rank",
            worker_id,
            "--heartbeat-s",
            repr(self.heartbeat_s),
        ]
        env = self._worker_env(authkey_hex, crash)
        if self.log_dir:
            os.makedirs(self.log_dir, exist_ok=True)
            log_path = os.path.join(self.log_dir, f"worker-{worker_id}.log")
            with open(log_path, "ab") as log_file:
                # The child keeps its duplicated fd; ours closes with the block.
                return subprocess.Popen(argv, env=env, stdout=log_file, stderr=log_file)
        return subprocess.Popen(argv, env=env)

    # -- the run loop -------------------------------------------------------------

    def map_groups(
        self,
        payloads: Sequence[Tuple],
        cell_keys: Any = None,
        cache: Any = None,
    ) -> List[GroupResult]:
        stats: Dict[str, Any] = {
            "worker_cell_counts": {},
            "requeues": 0,
            "workers_crashed": 0,
            "heartbeat_evictions": 0,
            "evictions": [],
            "workers_seen": 0,
            "task_batches": 0,
            "address": {"bind": self.bind_host, "advertise": self.advertise_host, "port": None},
        }
        if not payloads:
            self.last_stats = stats
            return []

        task_queue: "queue.Queue" = queue.Queue()
        result_queue: "queue.Queue" = queue.Queue()
        manager_class = _make_queue_manager(task_queue, result_queue)
        # Local runs get a fresh random key per run; a fleet coordinator
        # honours a preset key from the environment, since remote hosts
        # must be handed the same value to pass the handshake.
        authkey_hex = os.environ.get(AUTHKEY_ENV) or secrets.token_hex(16)
        manager = manager_class(
            address=(self.bind_host, self.port), authkey=authkey_hex.encode("ascii")
        )
        # Any: the Server type (and its stop_event/listener) is not in typeshed.
        server: Any = manager.get_server()
        server.stop_event = threading.Event()
        accept_thread = threading.Thread(
            target=_accept_until_stopped, args=(server,), daemon=True
        )
        accept_thread.start()
        port = int(server.address[1])
        stats["address"]["port"] = port

        blobs = [pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL) for payload in payloads]
        entries: List[TaskEntry] = list(enumerate(blobs))
        for start in range(0, len(entries), self.batch):
            task_queue.put(entries[start : start + self.batch])

        crash_initial, crash_respawn = self._FAULT_MODES[self.fault_injection]
        procs: Dict[str, subprocess.Popen] = {}
        next_rank = 0
        for _ in range(min(self.workers, len(entries))):
            worker_id = str(next_rank)
            procs[worker_id] = self._spawn_worker(worker_id, port, authkey_hex, crash_initial)
            next_rank += 1

        results: List[Optional[GroupResult]] = [None] * len(blobs)
        pending = set(range(len(blobs)))
        claims: Dict[int, str] = {}  # task_id -> worker_id currently holding it
        attempts: Dict[int, int] = {task_id: 0 for task_id in pending}
        task_workers: Dict[int, List[str]] = {task_id: [] for task_id in pending}
        worker_cells: Dict[str, int] = {}
        last_seen: Dict[str, float] = {}
        failures: List[Dict[str, Any]] = []
        worker_error: Optional[Tuple[int, str, str]] = None
        deadline = None if self.timeout_s is None else time.monotonic() + self.timeout_s
        lost_since: Optional[float] = None

        def _requeue_or_fail(task_id: int, reason: str) -> None:
            claims.pop(task_id, None)
            if attempts[task_id] <= self.max_requeues:
                task_queue.put([(task_id, blobs[task_id])])
                stats["requeues"] += 1
            else:
                pending.discard(task_id)
                failures.append(
                    {
                        "task": task_id,
                        "attempts": attempts[task_id],
                        "workers": list(task_workers[task_id]),
                        "reason": reason,
                    }
                )

        def _evict(worker_id: str, detected: str, reason: str) -> None:
            proc = procs.pop(worker_id, None)
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
            held = sorted(t for t, w in claims.items() if w == worker_id and t in pending)
            for task_id in held:
                _requeue_or_fail(task_id, reason)
            stats["evictions"].append(
                {"worker": worker_id, "detected": detected, "tasks": held}
            )
            last_seen.pop(worker_id, None)

        try:
            while pending and worker_error is None:
                try:
                    message = result_queue.get(timeout=self.poll_interval_s)
                except queue.Empty:
                    message = None
                if message is not None:
                    kind = message[0]
                    worker_id = str(message[1])
                    if worker_id not in last_seen:
                        stats["workers_seen"] += 1
                    last_seen[worker_id] = time.monotonic()
                    if kind == "claim":
                        _, _, task_ids = message
                        stats["task_batches"] += 1
                        for task_id in task_ids:
                            attempts[task_id] += 1
                            claims[task_id] = worker_id
                            task_workers[task_id].append(worker_id)
                    elif kind == "done":
                        _, _, task_id, rows = message
                        if task_id in pending:
                            pending.discard(task_id)
                            results[task_id] = rows
                            worker_cells[worker_id] = worker_cells.get(worker_id, 0) + len(rows)
                        claims.pop(task_id, None)
                    elif kind == "error":
                        _, _, task_id, traceback_text = message
                        worker_error = (task_id, worker_id, traceback_text)
                    # "hello" and "heartbeat" only refresh last_seen.
                    continue  # drain eagerly before liveness checks

                # No message: check worker liveness and the deadline.
                now = time.monotonic()
                for worker_id, proc in list(procs.items()):
                    if proc.poll() is None:
                        continue
                    stats["workers_crashed"] += 1
                    _evict(
                        worker_id,
                        "exit",
                        f"worker crashed (exit {proc.returncode}); requeue budget "
                        f"({self.max_requeues}) exhausted",
                    )
                # Heartbeat eviction: any worker (local *or* remote) holding
                # claimed tasks that has gone silent past the timeout is dead
                # to the run — a frozen host never exits, so poll() alone
                # would wait out timeout_s.
                silent = {
                    worker_id
                    for task_id, worker_id in claims.items()
                    if task_id in pending
                    and now - last_seen.get(worker_id, now) > self.heartbeat_timeout_s
                }
                for worker_id in silent:
                    stats["heartbeat_evictions"] += 1
                    _evict(
                        worker_id,
                        "heartbeat",
                        f"worker silent for more than {self.heartbeat_timeout_s}s "
                        f"(heartbeat eviction); requeue budget ({self.max_requeues}) "
                        "exhausted",
                    )
                if self.workers > 0 and not failures:
                    while pending and len(procs) < min(self.workers, len(pending)):
                        worker_id = str(next_rank)
                        procs[worker_id] = self._spawn_worker(
                            worker_id, port, authkey_hex, crash_respawn
                        )
                        next_rank += 1
                # Tasks lost in the claim window: a worker pulled a batch and
                # died before sending its claim, so the tasks are in neither
                # the queue nor the claim table.  Claims normally arrive
                # within milliseconds; once unclaimed pending tasks have been
                # missing from an *empty* queue for the full grace period,
                # requeue them under the same budget (a loss counts as an
                # attempt, keeping repeated losses bounded).
                missing = [t for t in sorted(pending) if t not in claims]
                if missing and task_queue.qsize() == 0:
                    if lost_since is None:
                        lost_since = now
                    elif now - lost_since >= self.claim_grace_s:
                        lost_since = None
                        for task_id in missing:
                            attempts[task_id] += 1
                            _requeue_or_fail(
                                task_id,
                                "task lost before claim; requeue budget "
                                f"({self.max_requeues}) exhausted",
                            )
                else:
                    lost_since = None
                if failures:
                    break
                if deadline is not None and now > deadline:
                    raise WorkQueueError(
                        f"work queue timed out after {self.timeout_s}s with "
                        f"{len(pending)} of {len(blobs)} tasks unfinished",
                        [
                            {
                                "task": task_id,
                                "attempts": attempts[task_id],
                                "workers": list(task_workers[task_id]),
                                "reason": "timeout",
                            }
                            for task_id in sorted(pending)
                        ],
                    )
        finally:
            self._shutdown(procs, task_queue, server, accept_thread, len(last_seen))

        if worker_error is not None:
            task_id, worker_id, traceback_text = worker_error
            raise RuntimeError(
                f"cell group {task_id} raised in work-queue worker {worker_id}:\n"
                f"{traceback_text}"
            )
        if failures:
            detail = "; ".join(
                f"task {f['task']} after {f['attempts']} attempts "
                f"(workers {f['workers']})" for f in failures
            )
            raise WorkQueueError(f"work queue gave up on {len(failures)} task(s): {detail}", failures)

        stats["worker_cell_counts"] = dict(sorted(worker_cells.items()))
        self.last_stats = stats
        return [result for result in results if result is not None]

    def _shutdown(
        self,
        procs: Mapping[str, "subprocess.Popen"],
        task_queue: "queue.Queue",
        server: Any,  # multiprocessing.managers Server (no public type)
        accept_thread: threading.Thread,
        n_known_workers: int,
    ) -> None:
        # One sentinel per process we spawned, per worker we ever heard from
        # (covers remote --connect workers), plus one spare.
        for _ in range(len(procs) + n_known_workers + 1):
            task_queue.put(None)  # sentinel: workers exit their loop
        deadline = time.monotonic() + 5.0
        for proc in procs.values():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        _wake_accept_loop(server, accept_thread)

    def __repr__(self) -> str:
        return (
            f"WorkQueueBackend(workers={self.workers}, max_requeues={self.max_requeues}, "
            f"bind={self.bind_host!r}, advertise={self.advertise_host!r}, "
            f"batch={self.batch})"
        )


def make_backend(backend: Any, default_workers: int = 1) -> SchedulerBackend:
    """Resolve the engine's ``backend`` argument to a backend instance.

    ``None`` keeps the historical behaviour: serial for ``workers=1``, a
    multiprocessing pool otherwise.  Strings are specs — ``"serial"``,
    ``"multiprocessing:workers=4"`` or ``"work-queue:workers=4"``; a spec without
    ``workers`` inherits ``default_workers`` (floored at 2 for the parallel
    backends, which otherwise degenerate to serial).  The work queue accepts
    the fleet knobs ``bind``/``advertise``/``port`` (spelled ``bind_host``/
    ``advertise_host``/``port`` as constructor arguments), ``batch``,
    ``heartbeat_s``/``heartbeat_timeout_s`` and ``workers=0`` (no local
    workers; remote hosts connect with the worker bootstrap one-liner)::

        make_backend("work-queue:bind=0.0.0.0,advertise=10.0.0.5,workers=0,batch=4")
    """
    if isinstance(backend, SchedulerBackend):
        return backend
    if backend is None:
        if default_workers > 1:
            return MultiprocessingBackend(workers=default_workers)
        return SerialBackend()
    if isinstance(backend, str):
        from ..api.registry import RegistryError, parse_spec

        name, params = parse_spec(backend)
        name = name.lower()
        if name == "serial":
            return SerialBackend()
        workers = int(params.pop("workers", max(default_workers, 2)))
        if name == "multiprocessing":
            return MultiprocessingBackend(workers=workers)
        if name == "work-queue":
            # Spec spelling: bind=/advertise= (short, address-like); the
            # constructor spells them out.
            if "bind" in params:
                params["bind_host"] = str(params.pop("bind"))
            if "advertise" in params:
                params["advertise_host"] = str(params.pop("advertise"))
            return WorkQueueBackend(workers=workers, **params)
        raise RegistryError(
            f"unknown scheduler backend {backend!r}; choose 'serial', "
            "'multiprocessing[:workers=N]' or 'work-queue[:workers=N]'"
        )
    raise TypeError(
        f"backend must be a SchedulerBackend, spec string or None, "
        f"got {type(backend).__name__}"
    )
