"""Scheduler backends: bitwise row equivalence, crash recovery, fleet knobs."""

from __future__ import annotations

import contextlib
import io
import sys
import threading
import time
from multiprocessing.connection import Listener
from types import SimpleNamespace

import pytest

from repro.experiments.backends import (
    AUTHKEY_ENV,
    MultiprocessingBackend,
    SerialBackend,
    WorkQueueBackend,
    WorkQueueError,
    _accept_until_stopped,
    make_backend,
)
from repro.experiments.cache import SqliteCellCache
from repro.experiments.engine import EvaluationEngine, ExperimentSpec
from repro.experiments.workloads import standard_world


@pytest.fixture(scope="module")
def world():
    return standard_world("tiny", seed=5)


def _spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="backend-test",
        mechanisms=["identity", "downsampling:factor=5", "pseudonyms:seed=1"],
        metrics=["point-retention", ("spatial-distortion", "area-coverage:cell_size_m=400.0")],
        worlds=["world"],
        seeds=[0, 1],
    )


@pytest.fixture(scope="module")
def serial_rows(world):
    return EvaluationEngine(backend=SerialBackend(), cache=False).run(
        _spec(), worlds={"world": world}
    )


class TestBackendEquivalence:
    def test_multiprocessing_matches_serial(self, world, serial_rows):
        rows = EvaluationEngine(backend=MultiprocessingBackend(workers=2), cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows

    def test_work_queue_matches_serial(self, world, serial_rows):
        backend = WorkQueueBackend(workers=2, timeout_s=300.0)
        rows = EvaluationEngine(backend=backend, cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows
        counts = backend.last_stats["worker_cell_counts"]
        assert sum(counts.values()) == len(serial_rows)
        assert backend.last_stats["requeues"] == 0

    def test_workers_kwarg_still_selects_multiprocessing(self):
        engine = EvaluationEngine(workers=3)
        assert isinstance(engine.backend, MultiprocessingBackend)
        assert engine.backend.workers == 3
        assert isinstance(EvaluationEngine().backend, SerialBackend)


class TestWorkQueueFaults:
    def test_killed_worker_is_requeued_once(self, world, serial_rows):
        backend = WorkQueueBackend(workers=1, timeout_s=300.0, fault_injection="crash-once")
        rows = EvaluationEngine(backend=backend, cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows
        assert backend.last_stats["workers_crashed"] >= 1
        assert backend.last_stats["requeues"] >= 1

    def test_task_lost_in_claim_window_is_recovered(self, world, serial_rows):
        """A worker dying after queue.get() but before its claim message must
        not hang the run: the lost task is detected after the claim grace
        period and requeued within the same budget."""
        backend = WorkQueueBackend(
            workers=1,
            timeout_s=300.0,
            claim_grace_s=0.2,
            fault_injection="crash-pre-claim",
        )
        rows = EvaluationEngine(backend=backend, cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows
        assert backend.last_stats["workers_crashed"] >= 1
        assert backend.last_stats["requeues"] >= 1

    def test_exhausted_requeues_surface_structured_failure(self, world):
        backend = WorkQueueBackend(workers=1, timeout_s=300.0, fault_injection="crash-always")
        with pytest.raises(WorkQueueError) as excinfo:
            EvaluationEngine(backend=backend, cache=False).run(
                _spec(), worlds={"world": world}
            )
        failures = excinfo.value.failures
        assert failures, "the error must carry structured per-task failures"
        assert failures[0]["attempts"] == 2  # first claim + one requeue
        assert len(failures[0]["workers"]) == 2
        assert "exhausted" in failures[0]["reason"]

    def test_worker_exception_propagates_with_traceback(self, world):
        spec = ExperimentSpec(
            name="bad-metric",
            mechanisms=["identity"],
            # area-coverage with a non-positive cell size raises inside the worker.
            metrics=["area-coverage:cell_size_m=-1.0"],
            worlds=["world"],
        )
        backend = WorkQueueBackend(workers=1, timeout_s=300.0)
        with pytest.raises(RuntimeError, match="work-queue worker"):
            EvaluationEngine(backend=backend, cache=False).run(spec, worlds={"world": world})

    def test_accept_loop_ends_when_the_stopped_listener_is_closed(self):
        # The stdlib accept loop retries every OSError, so a listener closed
        # by the coordinator's shutdown left a thread spinning at full CPU
        # (and holding the interpreter lock) for the rest of the process.
        listener = Listener(("127.0.0.1", 0))
        server = SimpleNamespace(
            listener=listener, stop_event=threading.Event(), handle_request=None
        )
        server.stop_event.set()
        listener.close()
        thread = threading.Thread(target=_accept_until_stopped, args=(server,), daemon=True)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_no_accept_thread_outlives_the_run(self, world):
        # Closing the listener does not wake a thread blocked in accept(),
        # so every run used to leave its accept loop behind for good.
        def accepting():
            code = _accept_until_stopped.__code__
            found = set()
            for ident, frame in sys._current_frames().items():
                while frame is not None:
                    if frame.f_code is code:
                        found.add(ident)
                    frame = frame.f_back
            return found

        before = accepting()
        spec = ExperimentSpec(
            name="accept-thread", mechanisms=["identity"], metrics=["point-retention"],
            worlds=["world"],
        )
        backend = WorkQueueBackend(workers=1, timeout_s=300.0)
        EvaluationEngine(backend=backend, cache=False).run(spec, worlds={"world": world})
        assert accepting() - before == set()

    def test_run_leaves_the_callers_stdout_and_stderr_alone(self, world, serial_rows):
        # The stdlib Server.serve_forever resets sys.stdout/sys.stderr to the
        # interpreter's originals when it stops (within a second of shutdown),
        # which silently undid a caller's redirect_stdout.
        out, err = io.StringIO(), io.StringIO()
        before = set(threading.enumerate())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rows = EvaluationEngine(backend="work-queue:workers=2", cache=False).run(
                _spec(), worlds={"world": world}
            )
            deadline = time.monotonic() + 2.0
            for thread in set(threading.enumerate()) - before:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert sys.stdout is out
            assert sys.stderr is err
        assert rows == serial_rows


class TestFleetPath:
    """The multi-host surface: bind/advertise, batching, heartbeat eviction
    and a shared sqlite cache — all pinned bitwise-identical to serial."""

    def test_bind_advertise_run_matches_serial(self, world, serial_rows):
        """Workers dial the advertised loopback address while the server
        binds every interface — the non-loopback path CI's fleet job uses."""
        backend = WorkQueueBackend(
            workers=2,
            timeout_s=300.0,
            bind_host="0.0.0.0",
            advertise_host="127.0.0.1",
        )
        rows = EvaluationEngine(backend=backend, cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows
        stats = backend.last_stats
        assert stats["address"]["bind"] == "0.0.0.0"
        assert stats["address"]["advertise"] == "127.0.0.1"
        assert stats["address"]["port"] > 0
        assert stats["workers_seen"] >= 1

    def test_batched_pulls_claim_fewer_round_trips(self, world, serial_rows):
        backend = WorkQueueBackend(workers=1, timeout_s=300.0, batch=3)
        rows = EvaluationEngine(backend=backend, cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows
        # 6 groups in batches of 3 → 2 claim round-trips, not 6.
        assert backend.last_stats["task_batches"] == 2

    def test_frozen_worker_is_evicted_by_heartbeat(self, world, serial_rows):
        """A worker that claims work, stops heartbeating and hangs — alive to
        poll(), dead to the run — must be evicted in ~heartbeat_timeout_s and
        its tasks requeued, not waited out until timeout_s."""
        backend = WorkQueueBackend(
            workers=1,
            timeout_s=120.0,
            heartbeat_s=0.1,
            heartbeat_timeout_s=0.8,
            fault_injection="freeze-once",
        )
        rows = EvaluationEngine(backend=backend, cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows
        stats = backend.last_stats
        assert stats["heartbeat_evictions"] >= 1
        assert stats["requeues"] >= 1
        assert any(e["detected"] == "heartbeat" for e in stats["evictions"])

    def test_shared_cache_is_filled_by_the_coordinator(self, world, serial_rows, tmp_path):
        """Workers ship rows back and the engine writes the sqlite file: it
        holds every row after one run, and a second engine on it never
        touches the queue."""
        cache = SqliteCellCache(str(tmp_path / "cells.sqlite"))
        backend = WorkQueueBackend(workers=2, timeout_s=300.0)
        engine = EvaluationEngine(backend=backend, cache=cache)
        try:
            rows = engine.run(_spec(), worlds={"world": world})
            assert rows == serial_rows
            assert len(cache) == len(serial_rows)

            # A fresh engine on the same file: 100% hits, backend untouched.
            warm_backend = WorkQueueBackend(workers=2, timeout_s=300.0)
            warm_engine = EvaluationEngine(backend=warm_backend, cache=cache)
            warm_rows = warm_engine.run(_spec(), worlds={"world": world})
            assert warm_rows == serial_rows
            assert warm_engine.cache_hits == len(serial_rows)
            assert warm_engine.cache_misses == 0
            assert warm_backend.last_stats == {}, "warm run must not touch the queue"
        finally:
            cache.close()

    def test_workers_zero_waits_for_remote_bootstrap(
        self, world, serial_rows, monkeypatch
    ):
        """The fleet-coordinator contract: ``workers=0`` spawns nothing, the
        preset env authkey is honoured by the queue server, and a worker
        bootstrapped with only ``--connect host:port`` (no rank, no key on
        the command line) drains the whole run."""
        import socket
        import subprocess
        import sys
        import threading

        monkeypatch.setenv(AUTHKEY_ENV, "fleet-test-key")
        probe = socket.socket()
        try:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        finally:
            probe.close()
        backend = WorkQueueBackend(
            workers=0, timeout_s=120.0, port=port, heartbeat_s=0.2,
            heartbeat_timeout_s=2.0,
        )
        engine = EvaluationEngine(backend=backend, cache=False)
        box = []
        coordinator = threading.Thread(
            target=lambda: box.append(engine.run(_spec(), worlds={"world": world}))
        )
        coordinator.start()
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.worker",
                "--connect",
                f"127.0.0.1:{port}",
                "--heartbeat-s",
                "0.2",
            ],
            env=WorkQueueBackend._worker_env("fleet-test-key", None),
        )
        try:
            coordinator.join(timeout=110.0)
            assert not coordinator.is_alive(), "coordinator did not finish"
            assert proc.wait(timeout=10.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert box and box[0] == serial_rows
        stats = backend.last_stats
        assert stats["workers_seen"] == 1
        (worker_id,) = stats["worker_cell_counts"]
        assert socket.gethostname() in worker_id  # auto-generated host-pid id


class TestMakeBackend:
    def test_spec_strings(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        mp = make_backend("multiprocessing:workers=4")
        assert isinstance(mp, MultiprocessingBackend) and mp.workers == 4
        wq = make_backend("work-queue:workers=3,max_requeues=2")
        assert isinstance(wq, WorkQueueBackend)
        assert wq.workers == 3 and wq.max_requeues == 2

    def test_default_workers_inherited(self):
        assert make_backend(None, default_workers=1).name == "serial"
        assert make_backend(None, default_workers=4).workers == 4
        assert make_backend("multiprocessing", default_workers=5).workers == 5

    def test_instances_pass_through(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        # One name per backend: the old aliases are unknown too.
        for name in ("carrier-pigeon", "mp", "pool", "workqueue", "queue"):
            with pytest.raises(ValueError, match="unknown scheduler backend"):
                make_backend(name)
        with pytest.raises(TypeError):
            make_backend(42)

    def test_invalid_fault_injection_rejected(self):
        with pytest.raises(ValueError, match="fault_injection"):
            WorkQueueBackend(fault_injection="typo")

    def test_fleet_spec_knobs(self):
        wq = make_backend(
            "work-queue:bind=0.0.0.0,advertise=10.0.0.5,port=9000,workers=0,batch=4"
        )
        assert isinstance(wq, WorkQueueBackend)
        assert wq.bind_host == "0.0.0.0"
        assert wq.advertise_host == "10.0.0.5"
        assert wq.port == 9000
        assert wq.workers == 0  # fleet-coordinator mode: remote workers only
        assert wq.batch == 4

    def test_advertise_defaults(self):
        # A wildcard bind is not dialable: advertise falls back to loopback.
        assert WorkQueueBackend(bind_host="0.0.0.0").advertise_host == "127.0.0.1"
        assert WorkQueueBackend(bind_host="10.1.2.3").advertise_host == "10.1.2.3"
        assert WorkQueueBackend().advertise_host == "127.0.0.1"

    def test_invalid_fleet_knobs_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            WorkQueueBackend(workers=-1)
        with pytest.raises(ValueError, match="batch"):
            WorkQueueBackend(batch=0)
        with pytest.raises(ValueError, match="heartbeat"):
            WorkQueueBackend(heartbeat_s=2.0, heartbeat_timeout_s=1.0)
