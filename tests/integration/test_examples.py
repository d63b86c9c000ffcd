"""Smoke tests: every example script runs clean and says what it should."""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

EXPECTED_OUTPUT = {
    "quickstart.py": ["Fig 4", "Advisor", "SNIC ②"],
    "kvstore_offload.py": ["one-sided (Fig 1a)", "SoC-offloaded (Fig 1b)",
                           "faster gets"],
    "path_selection.py": ["Offload plans", "bulk staging pipeline"],
    "anomaly_audit.py": ["skew", "hol", "doorbell"],
    "bulk_offload.py": ["doorbells", "Gbps"],
    "log_shipping.py": ["budget rule", "throttle waits"],
    "replicated_kv.py": ["path-3 budget", "lag mean us"],
    "fault_tolerance.py": ["retransmits", "identical",
                           "0 keys diverged from the primary",
                           "degraded lag mean"],
    "span_tracing.py": ["span tree", "anomaly A2", "latency tax",
                        "Chrome trace"],
}


def test_every_example_is_covered():
    scripts = {p.name for p in EXAMPLES.glob("*.py")}
    assert scripts == set(EXPECTED_OUTPUT)


@pytest.mark.parametrize("script", sorted(EXPECTED_OUTPUT))
def test_example_runs_and_reports(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=240)
    assert result.returncode == 0, result.stderr
    for needle in EXPECTED_OUTPUT[script]:
        assert needle in result.stdout, (script, needle)


@pytest.mark.parametrize("hash_seed", ["0", "25"])
def test_replicated_kv_reads_back_under_any_hash_seed(hash_seed):
    # Bucket placement must not depend on the process's string-hash
    # salt: under seed 25 a salted fingerprint once put two keys in one
    # bucket and the later put erased the key the example reads back.
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "replicated_kv.py")],
        capture_output=True, text=True, timeout=240,
        env={**os.environ, "PYTHONHASHSEED": hash_seed})
    assert result.returncode == 0, result.stderr
