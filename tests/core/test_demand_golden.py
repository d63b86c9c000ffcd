"""Golden pin of the per-flow demand model on both solver backends.

One sha256 over canonical demand dicts (sorted keys, ``repr`` floats)
on a grid that reaches every branch of the demand builder: every path
and verb, zero / tiny / MTU-crossing / past-the-HOL-threshold payloads,
ranges inside and outside the DDIO slice and the DRAM bank spread,
doorbell batching on and off, clamped and unclamped requester counts,
an admission cap, and the full-duplex derating (each flow is priced
alone and again beside an opposite-direction 4 KiB ``SNIC1`` flow).

The scalar dicts and the rows the batch solver's column evaluation
gives must hash to the same digest, and the digest must not move: it
is the model's reference.
"""

import hashlib
import itertools
from types import SimpleNamespace

import pytest

from repro.core import batch
from repro.core.demand import demand_model
from repro.core.paths import CommPath, Opcode
from repro.core.throughput import Flow, Scenario
from repro.net.topology import paper_testbed
from repro.units import GB, KB, MB

GOLDEN = "ce2181c65ebc1fc13290fe7f3951fe3f9d393d4610bb07900a76f0b596e7a80e"

PAYLOADS = (0, 1, 64, 4 * KB, 9 * MB + 1)
RANGES = (512.0, float(32 * MB), 10.0 * GB)
DOORBELLS = (1, 16)
REQUESTERS = (1, 11, 50)
CAPS = (None, 5e-2)


def _grid():
    """Scenario flow lists, in a fixed order."""
    for path, op, payload, range_bytes, db, reqs, cap in itertools.product(
            CommPath, Opcode, PAYLOADS, RANGES, DOORBELLS, REQUESTERS, CAPS):
        flow = Flow(path=path, op=op, payload=payload, requesters=reqs,
                    range_bytes=max(range_bytes, float(max(1, payload))),
                    doorbell_batch=db, rate_cap=cap)
        companion = Flow(path=CommPath.SNIC1,
                         op=Opcode.WRITE if op is Opcode.READ else Opcode.READ,
                         payload=4 * KB)
        yield [flow]
        yield [flow, companion]


TESTBEDS = (paper_testbed(), paper_testbed(n_clients=13))


def _canonical(demand) -> bytes:
    return ";".join(f"{key}={value!r}"
                    for key, value in sorted(demand.items())).encode()


def _digest(rows) -> str:
    sha = hashlib.sha256()
    for row in rows:
        sha.update(_canonical(row))
        sha.update(b"\n")
    return sha.hexdigest()


def _scalar_rows():
    for testbed in TESTBEDS:
        for flows in _grid():
            yield from Scenario(testbed, flows).demands


def _columns(np, flows, has_cap):
    """A group's flow fields as float64 columns, under ``Flow``'s names."""
    def column(name):
        return np.array([getattr(f, name) for f in flows], dtype=np.float64)

    return SimpleNamespace(
        payload=column("payload"), requesters=column("requesters"),
        range_bytes=column("range_bytes"),
        doorbell_batch=column("doorbell_batch"),
        rate_cap=column("rate_cap") if has_cap else None)


def _vector_rows():
    """The same rows, each built by evaluating the demand builder once
    per ``(path, op, slot, duplex, cap present)`` group on float64
    columns."""
    np = batch.require_numpy()
    for testbed in TESTBEDS:
        model = demand_model(testbed)
        rows = []
        groups = {}
        for flows in _grid():
            duplex = Scenario(testbed, flows)._network_duplex_loaded()
            for slot, flow in enumerate(flows):
                sig = (flow.path, flow.op, slot, duplex,
                       flow.rate_cap is not None)
                groups.setdefault(sig, []).append((len(rows), flow))
                rows.append(None)
        for (path, op, slot, duplex, has_cap), members in groups.items():
            cols = model.build(path, op, slot, duplex, _columns(
                np, [f for _r, f in members], has_cap))
            full = {name: np.broadcast_to(col, len(members)).tolist()
                    for name, col in cols.items()}
            for k, (row, _flow) in enumerate(members):
                rows[row] = {name: values[k] for name, values in full.items()
                             if values[k] != 0.0}
        yield from rows


def test_scalar_demands_match_golden():
    assert _digest(_scalar_rows()) == GOLDEN


def test_vector_demands_match_golden():
    if not batch.numpy_available():
        pytest.skip("numpy not installed")
    assert _digest(_vector_rows()) == GOLDEN
