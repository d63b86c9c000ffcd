"""Supervision for sharded runs: typed failures, checkpoints, watchdog.

Three concerns live here, all serving one contract — a sharded run
either completes with exactly the counts an unfailed run would have
produced, or dies with a diagnosis naming the shard and the invariant:

* **typed failures** — :class:`FabricWedgedError` (the lockstep loop
  stopped making progress, with per-shard done/idle flags and pending
  message counts), :class:`ShardWorkerError` (a worker process died or
  raised, with the shard name and the worker-side traceback), and
  :class:`ConservationError` (a per-window accounting invariant broke);
* **window checkpoints** — :class:`WindowLog`, the supervisor's
  event-sourced snapshot.  Shard state is fully determined by the shard
  spec plus the sequence of inbound fabric messages per window, so the
  checkpoint records exactly that; recovery replays it against a fresh
  worker and lands bit-identical (:func:`repro.sim.shard.run_sharded`
  owns the replay).  On disk it is an append-only JSON-lines journal,
  one line per window, for cross-process resume (``repro serve
  --checkpoint-dir/--resume``);
* **the conservation watchdog** — :class:`ConservationWatchdog` checks,
  at every barrier, that every tenant's arrivals equal completed +
  rejected + lost + in-flight, that counters only grow, and that every
  fabric message sent is accounted for as handed over, still pending in
  the router, or dropped by the cluster injector.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.xshard import ShardMessage

CHECKPOINT_FILE = "checkpoint.jsonl"


# -- typed failures ---------------------------------------------------------------


class FabricWedgedError(RuntimeError):
    """The lockstep loop advanced a window in which no shard moved, yet
    the run is not finished — a deadlock in the cross-shard fabric."""

    def __init__(self, done: Dict[str, bool], idle: Dict[str, bool],
                 pending: Dict[str, int]):
        self.done = dict(done)
        self.idle = dict(idle)
        self.pending = dict(pending)
        flags = ", ".join(
            f"{shard}: done={done[shard]} idle={idle[shard]} "
            f"pending={pending.get(shard, 0)}"
            for shard in sorted(done))
        super().__init__(
            f"cross-shard fabric wedged: no shard progressed and "
            f"messages remain undeliverable ({flags})")


class ShardWorkerError(RuntimeError):
    """A shard worker failed in a way a respawn cannot (or may not)
    fix: it raised, or it died more times than the respawn budget."""

    def __init__(self, shard: str, detail: str):
        self.shard = shard
        self.detail = detail
        super().__init__(f"shard worker {shard!r} failed:\n{detail}")


class ConservationError(RuntimeError):
    """A per-window accounting invariant broke — request or message
    flow is not conserved, which means simulation state is corrupt."""

    def __init__(self, barrier: float, violations: Sequence[str]):
        self.barrier = barrier
        self.violations = tuple(violations)
        lines = "\n  ".join(self.violations)
        super().__init__(
            f"conservation violated at barrier {barrier:.0f} ns:\n  {lines}")


# -- configuration ----------------------------------------------------------------

#: Wall-clock budget for one worker to answer one barrier exchange
#: (a respawn's replay included) before it is declared stalled.
EXCHANGE_TIMEOUT_S = 60.0
#: The join→terminate→kill escalation schedule when reaping workers.
JOIN_TIMEOUT_S = 5.0
KILL_GRACE_S = 2.0
#: Total worker respawns allowed per run before the supervisor gives
#: up with :class:`ShardWorkerError`.
MAX_RESPAWNS = 3


@dataclass(frozen=True)
class SupervisorConfig:
    """How :func:`repro.sim.shard.run_sharded` supervises its workers.

    * ``checkpoint_dir``/``resume`` — journal the :class:`WindowLog`
      to disk and optionally start from it;
    * ``kill_shard``/``kill_window`` — chaos hook: hard-kill the named
      shard's worker at the given 1-based window, forcing a respawn
      (the run must still produce unkilled counts);
    * ``incident_report`` — where to write the supervisor's incident
      log as JSON.

    Timeouts and the respawn budget are the module constants above.
    """

    checkpoint_dir: Optional[str] = None
    resume: bool = False
    kill_shard: Optional[str] = None
    kill_window: int = 0
    incident_report: Optional[str] = None

    def __post_init__(self):
        if self.resume and not self.checkpoint_dir:
            raise ValueError("resume requires a checkpoint_dir")
        if self.kill_shard is not None and self.kill_window < 1:
            raise ValueError("kill_window is 1-based; set it >= 1")


# -- the event-sourced checkpoint -------------------------------------------------


def plan_fingerprint(plan, sync_window_ns: float, options: Dict) -> str:
    """Identity of a sharded run for checkpoint-compatibility checks.

    Covers everything that determines worker behavior: the shard specs
    (tenants, local fault plans, exports), the topology, the cluster
    fault plan, the sync window, and the run's ``options`` (engine,
    adaptive, testbed and controller fingerprint).  Two runs with the
    same fingerprint replay identically from the same log.
    """
    cluster = getattr(plan, "cluster_faults", None)
    parts = [
        repr(plan.shards),
        repr(plan.topology),
        repr(cluster.to_dict()) if cluster is not None else "None",
        repr(sync_window_ns),
        ",".join(f"{key}={_identity(options[key])}"
                 for key in sorted(options)),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _identity(value) -> str:
    """A ``repr`` that survives a process restart: device objects (a
    testbed's NICs, whose own reprs are addresses) show their ``spec``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return repr((type(value).__name__, *(
            _identity(getattr(value, f.name))
            for f in dataclasses.fields(value))))
    return repr(getattr(value, "spec", value))


def _window_record(window) -> dict:
    barrier, inbound = window
    return {"barrier": barrier,
            "inbound": {shard: [dataclasses.asdict(m) for m in msgs]
                        for shard, msgs in inbound.items()}}


class WindowLog:
    """The inbound-message journal that *is* the shard checkpoint.

    A shard worker's state after window k is a pure function of its
    spec and the inbound messages it was handed at each of windows
    1..k, so recording those (plus the barrier times) is a complete,
    tiny snapshot: respawn a fresh worker, replay the log, and it is
    bit-identical to the one that died.  The router's pending messages
    need no separate serialization — they are exactly the outboxes of
    the last recorded window, which replay regenerates.

    On disk the log is a JSON-lines journal: a header line
    (``fingerprint``, ``sync_window_ns``), one ``{"barrier",
    "inbound"}`` line per window, and ``{"complete": true}`` once the
    run finished.  After :meth:`save`, every :meth:`record` appends one
    line, so a run writes each window once.
    """

    def __init__(self, fingerprint: str, sync_window_ns: float):
        self.fingerprint = fingerprint
        self.sync_window_ns = sync_window_ns
        self.windows: List[Tuple[float, Dict[str, List[ShardMessage]]]] = []
        self.complete = False
        self._path: Optional[str] = None

    def __len__(self) -> int:
        return len(self.windows)

    def record(self, barrier: float,
               inbound: Dict[str, List[ShardMessage]]) -> None:
        window = (barrier,
                  {shard: list(msgs) for shard, msgs in inbound.items()})
        self.windows.append(window)
        if self._path is not None:
            self._append(_window_record(window))

    def finish(self) -> None:
        """Mark the run complete (and journal the marker once)."""
        if not self.complete and self._path is not None:
            self._append({"complete": True})
        self.complete = True

    def _append(self, record: dict) -> None:
        with open(self._path, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def save(self, directory: str) -> str:
        """Atomically write the journal so far as ``checkpoint.jsonl``
        and journal every later :meth:`record` to it."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, CHECKPOINT_FILE)
        records = [{"fingerprint": self.fingerprint,
                    "sync_window_ns": self.sync_window_ns},
                   *map(_window_record, self.windows)]
        if self.complete:
            records.append({"complete": True})
        with open(path + ".tmp", "w") as handle:
            handle.writelines(json.dumps(r) + "\n" for r in records)
        os.replace(path + ".tmp", path)
        self._path = path
        return path

    @classmethod
    def load(cls, directory: str,
             expect_fingerprint: Optional[str] = None) -> "WindowLog":
        path = os.path.join(directory, CHECKPOINT_FILE)
        with open(path) as handle:
            # Every whole line ends in a newline; text after the last
            # one is a write the process died in, and is dropped.
            header, *rest = map(json.loads, handle.read().split("\n")[:-1])
        log = cls(fingerprint=header["fingerprint"],
                  sync_window_ns=float(header["sync_window_ns"]))
        if (expect_fingerprint is not None
                and log.fingerprint != expect_fingerprint):
            raise ValueError(
                f"checkpoint at {path} was taken from a different run "
                f"(fingerprint {log.fingerprint} != {expect_fingerprint}); "
                f"refusing to resume")
        for record in rest:
            if record.get("complete"):
                log.complete = True
            else:
                log.windows.append((float(record["barrier"]), {
                    shard: [ShardMessage(**m) for m in msgs]
                    for shard, msgs in record["inbound"].items()}))
        return log


# -- the conservation watchdog ----------------------------------------------------


class ConservationWatchdog:
    """Per-window flow-conservation checks over a sharded run.

    ``heartbeats`` maps each shard to the picklable digest produced by
    :meth:`repro.sched.serve.ServeSession.heartbeat`: per-tenant
    ``(arrivals, completed, rejected, lost, in_flight)`` plus the
    channel's ``(sent, handed, fired, timeouts)`` flow counts.
    """

    def __init__(self):
        self._prev: Dict[str, dict] = {}
        self.windows_checked = 0

    def check(self, barrier: float, heartbeats: Dict[str, dict],
              router_pending: int, fabric_dropped: int,
              injected: int = 0) -> None:
        """Audit one closed window.

        ``injected`` counts messages the lockstep parent itself put on
        the fabric (cluster-scheduler ctl directives): they were never
        sent by any shard channel, so they appear on the handed side of
        the flow balance without a matching ``sent``.
        """
        violations = []
        total_sent = total_handed = 0
        for shard in sorted(heartbeats):
            beat = heartbeats[shard]
            prev = self._prev.get(shard, {"tenants": {}, "fabric": (0,) * 4})
            for tenant in sorted(beat["tenants"]):
                arrivals, completed, rejected, lost, in_flight = \
                    beat["tenants"][tenant]
                if in_flight < 0:
                    violations.append(
                        f"{shard}/{tenant}: negative in-flight {in_flight}")
                if arrivals != completed + rejected + lost + in_flight:
                    violations.append(
                        f"{shard}/{tenant}: arrivals {arrivals} != "
                        f"completed {completed} + rejected {rejected} + "
                        f"lost {lost} + in-flight {in_flight}")
                before = prev["tenants"].get(tenant)
                if before is not None:
                    for label, was, now in (
                            ("arrivals", before[0], arrivals),
                            ("completed", before[1], completed),
                            ("rejected", before[2], rejected),
                            ("lost", before[3], lost)):
                        if now < was:
                            violations.append(
                                f"{shard}/{tenant}: {label} went backwards "
                                f"({was} -> {now})")
            sent, handed, fired, _timeouts = beat["fabric"]
            if fired > handed:
                violations.append(
                    f"{shard}: fabric fired {fired} > handed {handed}")
            if sent < prev["fabric"][0] or handed < prev["fabric"][1]:
                violations.append(f"{shard}: fabric counters went backwards")
            total_sent += sent
            total_handed += handed
        if total_sent + injected != (total_handed + router_pending
                                     + fabric_dropped):
            violations.append(
                f"fabric flow: sent {total_sent} + injected {injected} "
                f"!= handed {total_handed} "
                f"+ router-pending {router_pending} "
                f"+ dropped {fabric_dropped}")
        if violations:
            raise ConservationError(barrier, violations)
        self._prev = {shard: {"tenants": dict(beat["tenants"]),
                              "fabric": tuple(beat["fabric"])}
                      for shard, beat in heartbeats.items()}
        self.windows_checked += 1

    def assert_drained(self, barrier: float,
                       heartbeats: Dict[str, dict]) -> None:
        """Termination check: nothing may still be in flight."""
        violations = [
            f"{shard}/{tenant}: {in_flight} requests still in flight "
            f"at termination"
            for shard, beat in sorted(heartbeats.items())
            for tenant, (_, _, _, _, in_flight)
            in sorted(beat["tenants"].items())
            if in_flight != 0]
        if violations:
            raise ConservationError(barrier, violations)


# -- incident log -----------------------------------------------------------------


@dataclass
class IncidentLog:
    """What the supervisor saw go wrong, for the incident report."""

    incidents: List[dict] = field(default_factory=list)
    respawns: int = 0

    def record(self, kind: str, shard: str, window: int,
               detail: str = "") -> None:
        self.incidents.append({
            "kind": kind,
            "shard": shard,
            "window": window,
            "detail": detail,
            "wall_time": time.time(),
        })
        if kind == "respawn":
            self.respawns += 1

    def save(self, path: str) -> str:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"respawns": self.respawns,
                       "incidents": self.incidents}, handle, indent=2)
        return path
