"""Worker CLI argument/env handling and backend_check failure paths.

The happy paths — real worker subprocesses evaluating real payloads — are
covered end-to-end by ``tests/test_backends.py`` and the CI equivalence
job.  This module pins the edges around them: the worker's argparse
surface, the missing-authkey exit, every connect-failure exit (bad host,
refused port, wrong authkey, coordinator death mid-run), the
hello/claim/done/error queue protocol (against a manager server hosted in a
test thread), the shared-cache direct-write path, and every
``backend_check`` branch that returns non-zero.
"""

from __future__ import annotations

import pickle
import queue
import socket
import subprocess
import sys
import tempfile
import threading
import types

import pytest

from repro.experiments import backend_check, worker
from repro.experiments.backends import AUTHKEY_ENV, CRASH_ENV, _accept_until_stopped
from repro.experiments.cache import SqliteCellCache

_AUTHKEY = "test-worker-authkey"


@pytest.fixture()
def queue_server(monkeypatch):
    """A live queue-manager server in a daemon thread, env authkey set.

    Yields ``(host, port, task_queue, result_queue)`` — the queues are the
    real local objects, so tests can seed tasks and inspect results without
    going through proxies themselves.
    """
    from multiprocessing.managers import BaseManager

    tasks: "queue.Queue" = queue.Queue()
    results: "queue.Queue" = queue.Queue()
    # A fresh subclass per test keeps the registry from leaking across tests.
    manager_cls = type("_TestQueueManager", (BaseManager,), {})
    manager_cls.register("get_task_queue", callable=lambda: tasks)
    manager_cls.register("get_result_queue", callable=lambda: results)
    manager = manager_cls(
        address=("127.0.0.1", 0), authkey=_AUTHKEY.encode("ascii")
    )
    server = manager.get_server()
    server.stop_event = threading.Event()
    threading.Thread(target=_accept_until_stopped, args=(server,), daemon=True).start()
    monkeypatch.setenv(AUTHKEY_ENV, _AUTHKEY)
    monkeypatch.delenv(CRASH_ENV, raising=False)
    host, port = server.address
    yield host, port, tasks, results
    server.stop_event.set()
    server.listener.close()


def _worker_argv(host: str, port: int, rank: str = "3"):
    # A long heartbeat keeps the result queue deterministic in protocol tests.
    return [
        "--connect",
        f"{host}:{port}",
        "--rank",
        rank,
        "--heartbeat-s",
        "30",
        "--retries",
        "0",
    ]


class TestWorkerArgs:
    def test_no_address_is_exit_2(self, capsys):
        assert worker.main([]) == 2
        assert "--connect" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--host", "127.0.0.1"], ["--port", "1"]])
    def test_half_a_legacy_address_is_exit_2(self, argv, capsys):
        """The removed --host/--port flags are unrecognised arguments."""
        with pytest.raises(SystemExit) as excinfo:
            worker.main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err

    def test_non_integer_port_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            worker.main(["--host", "h", "--port", "not-a-number"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --host h --port not-a-number" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            worker.main(["--connect", "h:not-a-number"])
        assert excinfo.value.code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", ["no-port", "host:", ":123", "host:notaport", ""]
    )
    def test_malformed_connect_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            worker.main(["--connect", value])
        assert excinfo.value.code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_missing_authkey_is_exit_2_not_a_crash(self, monkeypatch, capsys):
        """Without the env authkey the worker must refuse to even connect."""
        monkeypatch.delenv(AUTHKEY_ENV, raising=False)
        assert worker.main(_worker_argv("127.0.0.1", 1, rank="7")) == 2
        err = capsys.readouterr().err
        assert "worker 7" in err
        assert AUTHKEY_ENV in err


class TestWorkerConnectFailures:
    """Every connect failure must exit non-zero with a clean message —
    never hang in the manager handshake (the satellite fix this pins)."""

    def test_unresolvable_host_is_exit_3(self, monkeypatch, capsys):
        monkeypatch.setenv(AUTHKEY_ENV, _AUTHKEY)
        argv = [
            "--connect",
            "nosuchhost.invalid:9999",
            "--rank",
            "w",
            "--retries",
            "0",
            "--connect-timeout-s",
            "2",
        ]
        assert worker.main(argv) == 3
        assert "could not connect" in capsys.readouterr().err

    def test_refused_port_retries_then_exit_3(self, monkeypatch, capsys):
        monkeypatch.setenv(AUTHKEY_ENV, _AUTHKEY)
        probe = socket.socket()
        try:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        finally:
            probe.close()  # nothing listens on `port` now
        argv = [
            "--connect",
            f"127.0.0.1:{port}",
            "--rank",
            "w",
            "--retries",
            "1",
            "--retry-backoff-s",
            "0.05",
            "--connect-timeout-s",
            "2",
        ]
        assert worker.main(argv) == 3
        assert "after 2 attempts" in capsys.readouterr().err

    def test_wrong_authkey_is_exit_3_without_retry(
        self, queue_server, monkeypatch, capsys
    ):
        host, port, _, _ = queue_server
        monkeypatch.setenv(AUTHKEY_ENV, "not-the-real-key")
        assert worker.main(_worker_argv(host, port, rank="w")) == 3
        assert "authentication failed" in capsys.readouterr().err

    def test_coordinator_death_mid_run_is_exit_4(self, monkeypatch, capsys):
        """A worker blocked on the task queue whose coordinator dies must
        exit 4 ("lost connection"), not hang forever."""
        monkeypatch.setenv(AUTHKEY_ENV, _AUTHKEY)
        server_script = (
            "import queue, sys\n"
            "from multiprocessing.managers import BaseManager\n"
            "tasks = queue.Queue(); results = queue.Queue()\n"
            "class M(BaseManager): pass\n"
            "M.register('get_task_queue', callable=lambda: tasks)\n"
            "M.register('get_result_queue', callable=lambda: results)\n"
            f"m = M(address=('127.0.0.1', 0), authkey={_AUTHKEY.encode('ascii')!r})\n"
            "s = m.get_server()\n"
            "print(s.address[1], flush=True)\n"
            "s.serve_forever()\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", server_script],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            port = int(proc.stdout.readline())
            exit_code: list = []
            runner = threading.Thread(
                target=lambda: exit_code.append(
                    worker.main(
                        [
                            "--connect",
                            f"127.0.0.1:{port}",
                            "--rank",
                            "w",
                            "--heartbeat-s",
                            "0.1",
                            "--retries",
                            "0",
                        ]
                    )
                ),
                daemon=True,
            )
            runner.start()
            # Wait for the worker's hello before killing the server: a kill
            # mid-handshake would (correctly) exit 3, not 4.
            from multiprocessing.managers import BaseManager

            observer_cls = type("_Observer", (BaseManager,), {})
            observer_cls.register("get_result_queue")
            observer = observer_cls(
                address=("127.0.0.1", port), authkey=_AUTHKEY.encode("ascii")
            )
            observer.connect()
            assert observer.get_result_queue().get(timeout=30.0) == ("hello", "w")
            assert runner.is_alive(), "worker exited before the coordinator died"
            proc.kill()
            proc.wait()
            runner.join(timeout=10.0)
            assert not runner.is_alive(), "worker hung after coordinator death"
            assert exit_code == [4]
            assert "lost connection" in capsys.readouterr().err
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _drain(results: "queue.Queue"):
    """All queued result messages, heartbeats filtered out."""
    messages = []
    while True:
        try:
            message = results.get_nowait()
        except queue.Empty:
            return messages
        if message[0] != "heartbeat":
            messages.append(message)


class TestWorkerProtocol:
    def test_shutdown_sentinel_returns_zero(self, queue_server):
        host, port, tasks, results = queue_server
        tasks.put(None)
        assert worker.main(_worker_argv(host, port)) == 0
        assert _drain(results) == [("hello", "3")]

    def test_batch_is_claimed_once_then_done_per_task(self, queue_server, monkeypatch):
        host, port, tasks, results = queue_server
        rows = [(0, {"metric": 1.0}), (1, {"metric": 2.0})]
        seen = []

        def fake_evaluate(payload):
            seen.append(payload)
            return rows

        from repro.experiments import engine

        monkeypatch.setattr(engine, "_evaluate_group", fake_evaluate)
        tasks.put(
            [
                (5, pickle.dumps("payload-a"), None),
                (6, pickle.dumps("payload-b"), None),
            ]
        )
        tasks.put(None)
        assert worker.main(_worker_argv(host, port, rank="2")) == 0
        assert seen == ["payload-a", "payload-b"]
        assert _drain(results) == [
            ("hello", "2"),
            ("claim", "2", [5, 6]),
            ("done", "2", 5, ("rows", rows)),
            ("done", "2", 6, ("rows", rows)),
        ]

    def test_cache_directive_writes_rows_and_ships_only_an_ack(
        self, queue_server, monkeypatch, tmp_path
    ):
        host, port, tasks, results = queue_server
        rows = [(0, {"metric": 1.0}), (1, {"metric": 2.0})]

        from repro.experiments import engine

        monkeypatch.setattr(engine, "_evaluate_group", lambda payload: rows)
        cache_path = str(tmp_path / "cells.sqlite")
        key_texts = ("v2:[\"cell-a\"]", "v2:[\"cell-b\"]")
        tasks.put([(5, pickle.dumps("payload"), (cache_path, key_texts))])
        tasks.put(None)
        assert worker.main(_worker_argv(host, port, rank="2")) == 0
        assert _drain(results) == [
            ("hello", "2"),
            ("claim", "2", [5]),
            ("done", "2", 5, ("cached", 2)),  # the ~100-byte ack, no rows
        ]
        store = SqliteCellCache(cache_path)
        try:
            assert store.get_serialized(key_texts[0]) == {"metric": 1.0}
            assert store.get_serialized(key_texts[1]) == {"metric": 2.0}
        finally:
            store.close()

    def test_default_worker_id_is_host_and_pid(self, queue_server):
        host, port, tasks, results = queue_server
        tasks.put(None)
        argv = ["--connect", f"{host}:{port}", "--heartbeat-s", "30", "--retries", "0"]
        assert worker.main(argv) == 0
        (hello,) = _drain(results)
        assert hello[0] == "hello"
        assert socket.gethostname() in hello[1]

    def test_heartbeats_flow_while_waiting(self, queue_server, monkeypatch):
        host, port, tasks, results = queue_server

        from repro.experiments import engine

        def slow_evaluate(payload):
            import time

            time.sleep(0.5)
            return [(0, {"metric": 0.0})]

        monkeypatch.setattr(engine, "_evaluate_group", slow_evaluate)
        tasks.put([(1, pickle.dumps("payload"), None)])
        tasks.put(None)
        argv = [
            "--connect",
            f"{host}:{port}",
            "--rank",
            "2",
            "--heartbeat-s",
            "0.05",
            "--retries",
            "0",
        ]
        assert worker.main(argv) == 0
        heartbeats = 0
        while True:
            try:
                message = results.get_nowait()
            except queue.Empty:
                break
            if message[0] == "heartbeat":
                assert message[1] == "2"
                heartbeats += 1
        assert heartbeats >= 2, "expected heartbeats during the slow evaluation"

    def test_bad_payload_reports_error_and_exits_1(self, queue_server):
        host, port, tasks, results = queue_server
        tasks.put([(9, b"definitely not a pickle", None)])
        assert worker.main(_worker_argv(host, port, rank="4")) == 1
        messages = _drain(results)
        assert messages[0] == ("hello", "4")
        assert messages[1] == ("claim", "4", [9])
        kind, worker_id, task_id, tb = messages[2]
        assert (kind, worker_id, task_id) == ("error", "4", 9)
        assert "Traceback" in tb

    def test_evaluation_exception_carries_traceback(self, queue_server, monkeypatch):
        host, port, tasks, results = queue_server

        def boom(payload):
            raise ValueError("injected evaluation failure")

        from repro.experiments import engine

        monkeypatch.setattr(engine, "_evaluate_group", boom)
        tasks.put([(1, pickle.dumps("payload"), None)])
        assert worker.main(_worker_argv(host, port, rank="0")) == 1
        messages = _drain(results)
        kind, _, _, tb = messages[2]
        assert kind == "error"
        assert "injected evaluation failure" in tb


class TestBackendCheckArgs:
    def test_mode_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            backend_check.main([])
        assert excinfo.value.code == 2

    def test_cache_mode_requires_file_and_expect(self, capsys):
        for argv in (
            ["cache", "--expect", "cold"],
            ["cache", "--cache-file", "x.sqlite"],
            ["cache", "--cache-file", "x.sqlite", "--expect", "lukewarm"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                backend_check.main(argv)
            assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["store"],
            ["fleet"],
            ["stream"],
            ["equivalence", "--workers", "2"],
            ["equivalence", "--scale", "tiny"],
            ["cache", "--cache-file", "x.sqlite", "--expect", "cold", "--scale", "tiny"],
        ],
    )
    def test_folded_modes_and_options_are_unrecognised(self, argv, capsys):
        """The legs carry their own scale, workers and timeout; the old
        per-mode subcommands are legs of ``equivalence`` now."""
        with pytest.raises(SystemExit) as excinfo:
            backend_check.main(argv)
        assert excinfo.value.code == 2

    def test_check_spec_shape(self):
        spec = backend_check.check_spec()
        assert len(spec.mechanisms) == 3
        assert len(spec.metrics) == 2
        assert spec.seeds == [0, 1]


class TestRowsIdentical:
    def test_identical_rows_pass(self, capsys):
        assert backend_check._rows_identical([{"a": 1}], [{"a": 1}], "mp")
        assert "ok   mp: 1 rows identical" in capsys.readouterr().out

    def test_differing_row_is_printed(self, capsys):
        rows = [{"a": 1}, {"a": 2}]
        assert not backend_check._rows_identical(rows, [{"a": 1}, {"a": 99}], "wq")
        out = capsys.readouterr().out
        assert "FAIL wq" in out
        assert "first differing row 1" in out

    def test_row_count_mismatch_is_printed(self, capsys):
        assert not backend_check._rows_identical([{"a": 1}, {"a": 2}], [{"a": 1}], "wq")
        assert "row counts differ: serial 2 vs wq 1" in capsys.readouterr().out


_ROWS = [{"cell": 0}, {"cell": 1}]

#: Backend stats that meet every expectation in the table at once.
_PASSING_STATS = {
    "workers_crashed": 1,
    "requeues": 1,
    "address": {"bind": "0.0.0.0"},
    "workers_seen": 2,
    "heartbeat_evictions": 1,
    "evictions": [{"detected": "heartbeat"}],
    "rows_shipped": 0,
    "cache_rows_written": len(_ROWS),
}

#: Store facts that miss both store expectations.
_BAD_WORLD_FACTS = {
    "memory_fingerprint": (1,),
    "store_fingerprint": (2,),
    "store_world_bytes": 4096,
    "dataset_bytes": 4096,
}

_TABLE = backend_check.legs("work-dir")


def _stub_engine(
    monkeypatch,
    rows=lambda backend: _ROWS,
    stats=lambda backend: _PASSING_STATS,
    hits=len(_ROWS),
    misses=0,
):
    """Replace EvaluationEngine with canned rows, ``last_stats`` and cache
    counters per backend spec string — the loop's logic, no processes."""

    class _FakeEngine:
        def __init__(self, backend="serial", cache=False):
            self.backend_spec = backend
            self.backend = types.SimpleNamespace(last_stats=dict(stats(backend)))
            self.cache_store = None
            self.cache_hits, self.cache_misses = hits, misses

        def run(self, spec):
            return [dict(row) for row in rows(self.backend_spec)]

    monkeypatch.setattr(backend_check, "EvaluationEngine", _FakeEngine)


class TestEquivalenceFailurePaths:
    """The leg loop's verdicts, with the engine stubbed out — the real
    multi-process happy path runs in test_backends.py and CI."""

    def test_all_identical_with_crash_stats_passes(self, monkeypatch, capsys):
        _stub_engine(monkeypatch)
        assert backend_check.main(["equivalence"]) == 0
        out = capsys.readouterr().out
        assert f"{len(_TABLE)}/{len(_TABLE)} legs passed" in out
        assert "ok   work-queue+crash: workers_crashed >= 1" in out
        assert "FAIL" not in out

    def test_row_mismatch_fails(self, monkeypatch, capsys):
        _stub_engine(
            monkeypatch,
            rows=lambda backend: [{"cell": 0}, {"cell": 99}]
            if backend.startswith("work-queue")
            else _ROWS,
        )
        assert backend_check.main(["equivalence"]) == 1
        out = capsys.readouterr().out
        assert "FAIL work-queue: rows differ from serial" in out
        assert "ok   multiprocessing: 2 rows identical to serial" in out

    def test_missing_crash_stats_fail_even_with_identical_rows(
        self, monkeypatch, capsys
    ):
        """Identical rows are not enough: the crash run must actually have
        crashed and requeued, else the recovery path went unexercised."""
        _stub_engine(
            monkeypatch,
            stats=lambda backend: {} if "crash-once" in backend else _PASSING_STATS,
        )
        assert backend_check.main(["equivalence"]) == 1
        out = capsys.readouterr().out
        assert "FAIL work-queue+crash: expected workers_crashed >= 1" in out
        assert "FAIL work-queue+crash: expected requeues >= 1" in out
        assert f"{len(_TABLE) - 1}/{len(_TABLE)} legs passed" in out

    @pytest.mark.parametrize(
        "leg", [leg for leg in _TABLE if leg.expect], ids=lambda leg: leg.label
    )
    def test_missed_expectation_fails_with_the_leg_label(self, leg, monkeypatch, capsys):
        """Every expectation of every leg has a failure branch: identical
        rows with stats (and store facts) that miss it exit non-zero."""
        _stub_engine(monkeypatch, stats=lambda backend: {}, hits=0, misses=0)
        assert backend_check.check_legs([leg], world_facts=_BAD_WORLD_FACTS) == 1
        out = capsys.readouterr().out
        assert f"ok   {leg.label}: 2 rows identical" in out
        for what, _ in leg.expect:
            assert f"FAIL {leg.label}: expected {what}" in out


class TestScratchDirectory:
    def test_store_legs_leave_no_backend_check_directory(self, tmp_path, monkeypatch, capfd):
        """The store world, its shards and the shared cache live in one
        temporary directory, removed when the run ends."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        table = backend_check.legs
        monkeypatch.setattr(
            backend_check,
            "legs",
            lambda work_dir, log_dir=None: [
                leg for leg in table(work_dir, log_dir) if leg.label.startswith("store+")
            ],
        )
        assert backend_check.main(["equivalence"]) == 0
        out = capfd.readouterr().out
        assert f"memmapped from {tmp_path}" in out
        assert "3/3 legs passed" in out
        assert not list(tmp_path.glob("backend-check-*"))


class TestCacheCheckPaths:
    def test_cold_warm_then_stale_cold(self, tmp_path, capsys):
        """One persistent file across three invocations: a fresh file is
        cold (0), the same file is warm (0), and claiming it is *still* cold
        must fail — the hits prove persistence."""
        cache_file = str(tmp_path / "cells.sqlite")
        assert backend_check.main(["cache", "--cache-file", cache_file, "--expect", "cold"]) == 0
        assert backend_check.main(["cache", "--cache-file", cache_file, "--expect", "warm"]) == 0
        assert backend_check.main(["cache", "--cache-file", cache_file, "--expect", "cold"]) == 1
        out = capsys.readouterr().out
        assert "ok   cache cold: 0 cache hits" in out
        assert "ok   cache warm: 100% cache hits" in out
        assert "FAIL cache cold: expected 0 cache hits" in out

    def test_warm_on_fresh_cache_fails(self, tmp_path, capsys):
        assert backend_check.main(
            ["cache", "--cache-file", str(tmp_path / "fresh.sqlite"), "--expect", "warm"]
        ) == 1
        assert "FAIL cache warm: expected 100% cache hits" in capsys.readouterr().out
