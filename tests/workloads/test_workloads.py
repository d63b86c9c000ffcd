"""Tests for workload generators."""

import random

import pytest

from repro.core.paths import Opcode
from repro.hw.memory.address import AddressRegion
from repro.units import GB, KB, MB
from repro.workloads import (
    FIG4_PAYLOADS,
    FIG7_RANGES,
    FIG8_PAYLOADS,
    OpMix,
    RequestStream,
    UniformPattern,
    power_of_two_sweep,
)


def test_power_of_two_sweep():
    assert power_of_two_sweep(16, 128) == [16, 32, 64, 128]
    assert power_of_two_sweep(16, 100) == [16, 32, 64]
    with pytest.raises(ValueError):
        power_of_two_sweep(0, 16)
    with pytest.raises(ValueError):
        power_of_two_sweep(32, 16)


def test_paper_grids_shape():
    assert FIG4_PAYLOADS[0] == 16 and FIG4_PAYLOADS[-1] == 16 * KB
    assert FIG7_RANGES[0] == 1536 and FIG7_RANGES[-1] == 10 * GB
    assert any(p > 9 * MB for p in FIG8_PAYLOADS)  # reaches the collapse


def test_uniform_pattern_range():
    region = AddressRegion(0, 1 * MB)
    pattern = UniformPattern(region, payload=64, rng=random.Random(0))
    for _ in range(100):
        addr = pattern.next()
        assert 0 <= addr <= 1 * MB - 64
    assert pattern.effective_range == 1 * MB


def test_op_mix_sampling():
    mix = OpMix(read=1.0, write=0.0, send=0.0)
    rng = random.Random(0)
    assert all(mix.sample(rng) is Opcode.READ for _ in range(50))
    mixed = OpMix(read=0.5, write=0.3, send=0.2)
    seen = {mixed.sample(rng) for _ in range(500)}
    assert seen == {Opcode.READ, Opcode.WRITE, Opcode.SEND}


def test_op_mix_validation():
    with pytest.raises(ValueError):
        OpMix(read=0.5, write=0.2, send=0.1)
    with pytest.raises(ValueError):
        OpMix(read=1.5, write=-0.5, send=0.0)


def test_request_stream_deterministic():
    region = AddressRegion(0, 1 * MB)

    def make():
        return RequestStream(OpMix(0.5, 0.5, 0.0),
                             UniformPattern(region, 64,
                                            rng=random.Random(1)),
                             seed=7)

    assert make().take(20) == make().take(20)
    with pytest.raises(ValueError):
        make().take(-1)


def test_request_stream_shape():
    region = AddressRegion(0, 1 * MB)
    stream = RequestStream(OpMix(1.0, 0.0, 0.0),
                           UniformPattern(region, 128))
    opcode, payload, addr = next(stream)
    assert opcode is Opcode.READ
    assert payload == 128
    assert 0 <= addr < 1 * MB
