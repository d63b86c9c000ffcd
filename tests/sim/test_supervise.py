"""Supervisor machinery: typed failures, window log, watchdog, reaping."""

import dataclasses
import json
import os

import pytest

from repro.cluster import compile_scenario
from repro.net.topology import paper_testbed
from repro.sim import supervise
from repro.sim.crosscheck import cluster_chaos_scenario
from repro.sim.shard import _reap_worker, _WorkerShard, run_sharded
from repro.sim.supervise import (CHECKPOINT_FILE, ConservationError,
                                 ConservationWatchdog, FabricWedgedError,
                                 IncidentLog, ShardWorkerError,
                                 SupervisorConfig, WindowLog,
                                 plan_fingerprint)

_DURATION = 160_000.0


def _chaotic_plan(seed=0):
    """The cluster-fault family's document, compiled with its chaos."""
    return compile_scenario(
        cluster_chaos_scenario(duration_ns=_DURATION, seed=seed))[0]


def _pristine_plan():
    return dataclasses.replace(_chaotic_plan(), cluster_faults=None)


def _digest(report):
    return ({name: (t.completed, t.rejected, t.lost, t.p50_ns, t.p99_ns)
             for name, t in report.tenants.items()},
            [d.as_tuple() for d in report.decisions])


# -- typed failures -----------------------------------------------------------------


def test_worker_exception_ships_shard_name_and_traceback():
    plan = _pristine_plan()
    with pytest.raises(ShardWorkerError) as err:
        run_sharded(plan, jobs=2, engine="bogus")
    assert err.value.shard in {s.name for s in plan.shards}
    assert "ValueError" in err.value.detail
    assert "Traceback" in err.value.detail
    assert err.value.shard in str(err.value)


def test_fabric_wedged_error_names_every_shard():
    err = FabricWedgedError(done={"m0": True, "m1": True},
                            idle={"m0": True, "m1": False},
                            pending={"m1": 3})
    text = str(err)
    assert "m0: done=True idle=True pending=0" in text
    assert "m1: done=True idle=False pending=3" in text
    assert err.pending == {"m1": 3}


def test_supervisor_config_validation():
    with pytest.raises(ValueError, match="resume requires"):
        SupervisorConfig(resume=True)
    with pytest.raises(ValueError, match="kill_window"):
        SupervisorConfig(kill_shard="m0")


# -- window log ---------------------------------------------------------------------


def test_window_log_roundtrips_and_checks_fingerprint(tmp_path):
    log = WindowLog("abc123", 25_000.0)
    log.record(25_000.0, {"m0": [], "m1": []})
    log.complete = True
    path = log.save(str(tmp_path))
    assert os.path.basename(path) == CHECKPOINT_FILE
    back = WindowLog.load(str(tmp_path), expect_fingerprint="abc123")
    assert len(back) == 1
    assert back.complete
    assert back.sync_window_ns == 25_000.0
    with pytest.raises(ValueError, match="fingerprint"):
        WindowLog.load(str(tmp_path), expect_fingerprint="different")


def test_window_log_appends_one_line_per_window(tmp_path):
    """Once saved, the journal grows by one line per recorded window:
    nothing already written is written again."""
    log = WindowLog("abc123", 25_000.0)
    log.save(str(tmp_path))
    path = tmp_path / CHECKPOINT_FILE
    before = path.read_text()
    for k in range(1, 4):
        log.record(25_000.0 * k, {"m0": [], "m1": []})
        text = path.read_text()
        assert text.startswith(before)
        assert text.count("\n") == 1 + k
        before = text
    log.finish()
    back = WindowLog.load(str(tmp_path))
    assert back.complete and len(back) == 3


def test_window_log_load_drops_only_a_torn_final_line(tmp_path):
    log = WindowLog("abc123", 25_000.0)
    log.save(str(tmp_path))
    for k in range(1, 4):
        log.record(25_000.0 * k, {"m0": []})
    path = tmp_path / CHECKPOINT_FILE
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + lines[-1][:7])
    assert len(WindowLog.load(str(tmp_path))) == 2
    path.write_text(lines[0] + lines[1][:7] + "\n" + "".join(lines[2:]))
    with pytest.raises(ValueError):
        WindowLog.load(str(tmp_path))


def test_plan_fingerprint_tracks_run_identity():
    plan = _pristine_plan()
    chaos = _chaotic_plan().cluster_faults
    base = plan_fingerprint(plan, 25_000.0, {})
    assert base == plan_fingerprint(plan, 25_000.0, {})
    assert base != plan_fingerprint(plan, 50_000.0, {})
    assert base != plan_fingerprint(plan, 25_000.0, {"engine": "hybrid"})
    assert base != plan_fingerprint(
        dataclasses.replace(plan, cluster_faults=chaos), 25_000.0, {})
    # A rebuilt testbed is the same testbed: its NIC objects are
    # fingerprinted by spec, not by address.
    assert (plan_fingerprint(plan, 25_000.0, {"testbed": paper_testbed()})
            == plan_fingerprint(plan, 25_000.0,
                                {"testbed": paper_testbed()}))
    assert (plan_fingerprint(plan, 25_000.0, {"testbed": paper_testbed()})
            != plan_fingerprint(plan, 25_000.0,
                                {"testbed": paper_testbed(n_clients=4)}))


# -- checkpoint / resume ------------------------------------------------------------


def test_resume_from_checkpoint_matches_uninterrupted_run(tmp_path):
    plan = _chaotic_plan()
    full = run_sharded(plan, jobs=1,
                       supervisor=SupervisorConfig(
                           checkpoint_dir=str(tmp_path)))
    resumed = run_sharded(plan, jobs=1,
                          supervisor=SupervisorConfig(
                              checkpoint_dir=str(tmp_path), resume=True))
    assert _digest(resumed) == _digest(full)

    # Truncate the journal to mid-run — a checkpoint written before the
    # process died — and resume across the other executor for good
    # measure: the tail re-runs live and still lands identical.
    path = tmp_path / CHECKPOINT_FILE
    header, *windows, complete = path.read_text().splitlines(keepends=True)
    assert json.loads(complete) == {"complete": True}
    path.write_text(header + "".join(windows[: max(1, len(windows) // 2)]))
    partial = run_sharded(plan, jobs=4,
                          supervisor=SupervisorConfig(
                              checkpoint_dir=str(tmp_path), resume=True))
    assert _digest(partial) == _digest(full)


def test_resume_after_a_torn_journal_write_matches_uninterrupted_run(
        tmp_path):
    """A crash mid-write leaves half a window line: resume drops it,
    re-runs that window live, and lands on the uninterrupted answer."""
    plan = _chaotic_plan()
    full = run_sharded(plan, jobs=1,
                       supervisor=SupervisorConfig(
                           checkpoint_dir=str(tmp_path)))
    path = tmp_path / CHECKPOINT_FILE
    header, *windows, _complete = path.read_text().splitlines(keepends=True)
    keep = len(windows) // 2
    torn = windows[keep][: len(windows[keep]) // 2]
    path.write_text(header + "".join(windows[:keep]) + torn)
    assert len(WindowLog.load(str(tmp_path))) == keep
    resumed = run_sharded(plan, jobs=1,
                          supervisor=SupervisorConfig(
                              checkpoint_dir=str(tmp_path), resume=True))
    assert _digest(resumed) == _digest(full)
    # The resumed run rewrote the journal whole: it loads complete.
    back = WindowLog.load(str(tmp_path))
    assert back.complete and len(back) == len(windows)


def test_resume_rejects_mismatched_plan(tmp_path):
    plan = _chaotic_plan()
    run_sharded(plan, jobs=1,
                supervisor=SupervisorConfig(checkpoint_dir=str(tmp_path)))
    other = _chaotic_plan(seed=9)
    with pytest.raises(ValueError, match="fingerprint"):
        run_sharded(other, jobs=1,
                    supervisor=SupervisorConfig(
                        checkpoint_dir=str(tmp_path), resume=True))


# -- conservation watchdog ----------------------------------------------------------


def _beat(arrivals, completed, rejected, lost, in_flight,
          fabric=(0, 0, 0, 0)):
    return {"tenants": {"t": (arrivals, completed, rejected, lost,
                              in_flight)},
            "fabric": fabric}


def test_watchdog_accepts_conserved_flow():
    dog = ConservationWatchdog()
    dog.check(25_000.0, {"m0": _beat(10, 4, 1, 2, 3)}, 0, 0)
    dog.check(50_000.0, {"m0": _beat(12, 7, 1, 2, 2)}, 0, 0)
    assert dog.windows_checked == 2
    dog.assert_drained(50_000.0, {"m0": _beat(12, 9, 1, 2, 0)})


def test_watchdog_trips_on_leaked_requests():
    dog = ConservationWatchdog()
    with pytest.raises(ConservationError, match="arrivals 10"):
        dog.check(25_000.0, {"m0": _beat(10, 4, 1, 2, 1)}, 0, 0)


def test_watchdog_trips_on_backwards_counters():
    dog = ConservationWatchdog()
    dog.check(25_000.0, {"m0": _beat(10, 4, 1, 2, 3)}, 0, 0)
    with pytest.raises(ConservationError, match="went backwards"):
        dog.check(50_000.0, {"m0": _beat(10, 3, 1, 2, 4)}, 0, 0)


def test_watchdog_trips_on_unaccounted_fabric_messages():
    dog = ConservationWatchdog()
    with pytest.raises(ConservationError, match="fabric flow"):
        dog.check(25_000.0, {"m0": _beat(5, 5, 0, 0, 0, fabric=(4, 1, 1, 0))},
                  1, 1)


def test_watchdog_trips_on_undrained_termination():
    dog = ConservationWatchdog()
    with pytest.raises(ConservationError, match="still in flight"):
        dog.assert_drained(50_000.0, {"m0": _beat(10, 6, 1, 2, 1)})


# -- reaping ------------------------------------------------------------------------


class _StubProc:
    """A process that ignores terminate and dies only on kill."""

    pid = 4242

    def __init__(self, dies_on="kill"):
        self.dies_on = dies_on
        self.calls = []
        self._alive = True

    def is_alive(self):
        return self._alive

    def join(self, timeout=None):
        self.calls.append(("join", timeout))

    def terminate(self):
        self.calls.append(("terminate", None))
        if self.dies_on == "terminate":
            self._alive = False

    def kill(self):
        self.calls.append(("kill", None))
        if self.dies_on == "kill":
            self._alive = False


def test_reap_escalates_terminate_then_kill():
    proc = _StubProc(dies_on="kill")
    _reap_worker(proc, "m0", join_timeout_s=0.01, kill_grace_s=0.01)
    kinds = [kind for kind, _ in proc.calls]
    assert kinds == ["join", "terminate", "join", "kill", "join"]
    assert not proc.is_alive()


def test_reap_warns_when_kill_fails():
    proc = _StubProc(dies_on="never")
    with pytest.warns(UserWarning, match="'m0'.*abandoning"):
        _reap_worker(proc, "m0", join_timeout_s=0.01, kill_grace_s=0.01)


# -- incident log -------------------------------------------------------------------


def test_incident_log_records_and_saves(tmp_path):
    log = IncidentLog()
    log.record("kill-injected", "m1", 3, "chaos hook")
    log.record("respawn", "m1", 3, "pipe closed")
    assert log.respawns == 1
    path = log.save(str(tmp_path / "incidents.json"))
    raw = json.loads(open(path).read())
    assert raw["respawns"] == 1
    assert [i["kind"] for i in raw["incidents"]] == ["kill-injected",
                                                     "respawn"]


def test_incident_report_written_by_run(tmp_path):
    plan = _chaotic_plan()
    report_path = tmp_path / "incidents.json"
    run_sharded(plan, jobs=2,
                supervisor=SupervisorConfig(
                    kill_shard=plan.shards[1].name, kill_window=2,
                    incident_report=str(report_path)))
    raw = json.loads(report_path.read_text())
    assert raw["respawns"] >= 1
    assert any(i["kind"] == "kill-injected" for i in raw["incidents"])


# -- respawn ------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_respawn_budget_exhausted_raises_shard_worker_error(monkeypatch,
                                                            jobs):
    monkeypatch.setattr(supervise, "MAX_RESPAWNS", 0)
    plan = _chaotic_plan()
    with pytest.raises(ShardWorkerError,
                       match=r"respawn budget \(0\) exhausted") as err:
        run_sharded(plan, jobs=jobs,
                    supervisor=SupervisorConfig(kill_shard="shard1",
                                                kill_window=2))
    assert err.value.shard == "shard1"


@pytest.mark.parametrize("window", [2, 6])
def test_respawned_worker_receives_its_replay_in_one_message(monkeypatch,
                                                             window):
    """However long the logged prefix, a respawn sends the fresh worker
    one message; the worker replays it locally."""
    during_respawn = []
    send, respawn = _WorkerShard._send, _WorkerShard.respawn

    def spy_send(self, message):
        if getattr(self, "respawning", False):
            during_respawn.append(message)
        send(self, message)

    def spy_respawn(self, prefix):
        self.respawning = True
        try:
            respawn(self, prefix)
        finally:
            self.respawning = False

    monkeypatch.setattr(_WorkerShard, "_send", spy_send)
    monkeypatch.setattr(_WorkerShard, "respawn", spy_respawn)
    plan = _chaotic_plan()
    killed = run_sharded(plan, jobs=2,
                         supervisor=SupervisorConfig(kill_shard="shard1",
                                                     kill_window=window))
    assert killed.counters["supervisor.respawns"] == 1
    [(command, inboxes)] = during_respawn
    assert command == "replay"
    assert len(inboxes) == window - 1
