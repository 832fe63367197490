"""Replica processes: each replica serves from its own forked process,
and none outlives its cluster or the process that started it."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cluster.local import LocalCluster
from repro.errors import ClusterError

CORPUS = [
    "<doc><p>alpha beta shared one</p></doc>",
    "<doc><p>gamma shared two</p></doc>",
    "<doc><p>alpha delta three</p></doc>",
    "<doc><p>epsilon shared four</p></doc>",
]

SRC = Path(__file__).resolve().parents[1] / "src"

#: Starts a cluster, prints its replica pids, then waits to be killed.
CHILD_SCRIPT = """
import sys, time
from repro.cluster.local import LocalCluster
corpus = {corpus!r}
cluster = LocalCluster.from_sources(corpus, num_shards=2, replicas=2).start()
assert cluster.search("shared", m=4).to_dict()["results"]
pids = [worker.pid for group in cluster.workers for worker in group]
print(" ".join(map(str, pids)), flush=True)
time.sleep(120)
"""


def alive(pid: int) -> bool:
    """Whether ``pid`` names a running process (a zombie is not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True  # no procfs here: trust the signal probe
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def replica_pids(cluster):
    return [worker.pid for group in cluster.workers for worker in group]


@pytest.fixture()
def cluster():
    with LocalCluster.from_sources(CORPUS, num_shards=2, replicas=2) as running:
        yield running


class TestReplicaProcesses:
    def test_each_replica_is_its_own_child_process(self, cluster):
        pids = replica_pids(cluster)
        assert len(set(pids)) == 4
        assert os.getpid() not in pids
        for pid in pids:
            # A child that has not been reaped: waitpid says still running.
            assert os.waitpid(pid, os.WNOHANG) == (0, 0)

    def test_stop_reaps_every_replica(self):
        running = LocalCluster.from_sources(CORPUS, num_shards=2, replicas=2)
        running.start()
        pids = replica_pids(running)
        running.stop()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_kill_reaps_the_replica_and_restart_forks_a_new_one(
        self, cluster
    ):
        killed = cluster.worker(1, 0).pid
        cluster.kill(1, 0)
        with pytest.raises(ProcessLookupError):
            os.kill(killed, 0)
        assert not cluster.worker(1, 0).running
        with pytest.raises(ClusterError):
            cluster.worker(1, 0).pid
        cluster.restart(1, 0)
        assert cluster.worker(1, 0).pid != killed
        assert cluster.search("shared", m=4, deadline_ms=5000).degraded is False

    def test_a_failed_start_reaps_the_replicas_that_started(
        self, monkeypatch
    ):
        # Both shards ask for one fixed port: the second replica cannot
        # bind it, and the first must not be left serving.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        forked = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        running = LocalCluster.from_sources(
            CORPUS, num_shards=2, worker_options={"port": port}
        )
        with pytest.raises(ClusterError, match="failed to start"):
            running.start()
        assert len(forked) == 2
        for pid in forked:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert not any(w.running for group in running.workers for w in group)

    def test_a_platform_without_fork_is_a_typed_error(self, monkeypatch):
        unstarted = LocalCluster.from_sources(CORPUS, num_shards=1)
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ClusterError, match="os.fork"):
            unstarted.start()

    def test_replicas_die_with_a_killed_parent(self):
        process = subprocess.Popen(
            [sys.executable, "-c", CHILD_SCRIPT.format(corpus=CORPUS)],
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            text=True,
        )
        try:
            pids = [int(pid) for pid in process.stdout.readline().split()]
            assert len(pids) == 4 and all(alive(pid) for pid in pids)
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait()
            process.stdout.close()
        deadline = time.monotonic() + 2.0
        while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if alive(pid)] == []
