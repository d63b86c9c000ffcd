"""The benchmark's own tests.

    python3 -m pytest perfbench

Each workload runs shrunk (``--scale``), in its own process, exactly as
the benchmark runs it: the same seed gives the same answers, tracing
changes no answer, rack at ``jobs=2`` agrees with ``jobs=1``, every
metric name printed is the one ``BENCHMARK.json`` declares, and without
the program's source the benchmark fails without a result.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Shrunk jobs.  Rack stays at 400 simulated us: on shorter runs the
#: merged report's summed per-machine bandwidth trips the single-fabric
#: utilization invariant.
SCALE = {"serve-des": 0.1, "serve-hybrid": 0.05, "rack": 0.4,
         "figure-sweep": 0.125}


def job(workload: str, *extra: str, seed: int = 4) -> dict:
    return bench._job(["--workload", workload, "--seed", str(seed),
                       "--scale", str(SCALE[workload]), *extra],
                      time.monotonic() + 120)


@pytest.fixture(scope="module")
def runs():
    """Two plain and one traced repetition of every workload."""
    return {name: (job(name), job(name), job(name, "--trace"))
            for name in WORKLOADS}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_same_answers(runs, workload):
    first, second, _traced = runs[workload]
    assert first["failures"] == []
    assert first["digest"] == second["digest"]
    assert first["digest_sha"] == second["digest_sha"]
    assert first["work"] > 0 and first["attempted"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracing_is_inert(runs, workload):
    plain, _second, traced = runs[workload]
    assert traced["failures"] == []      # includes the self-time sum
    assert traced["digest_sha"] == plain["digest_sha"]
    self_s = traced["layer_self_s"]
    assert sum(self_s.values()) == pytest.approx(traced["traced_s"],
                                                 rel=1e-6)


def test_rack_jobs2_matches_jobs1():
    one = job("rack", "--jobs", "1")
    two = job("rack", "--jobs", "2")
    assert one["failures"] == [] and two["failures"] == []
    assert one["digest"] == two["digest"]


def test_metric_names_match_benchmark_json(runs):
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for name, (plain, second, traced) in runs.items():
        assert set(traced["layers"]) | {"trace.overhead"} == set(per_layer)
        for reps, expected in (([], end_to_end), ([traced], per_layer)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                result = bench.report(name, 4, [plain, second], reps)
            assert result["correct"]
            metrics = result["metrics"]
            assert list(metrics) == list(expected)
            for metric, unit in expected.items():
                assert metrics[metric]["unit"] == unit
                assert isinstance(metrics[metric]["value"], (int, float))
                assert metric in out.getvalue()
        values = bench.end_to_end([plain, second])
        assert all(v > 0 for v in values.values()), values


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-des",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_add_up_with_nesting():
    class Toy:
        def outer(self):
            time.sleep(0.002)
            self.inner()

        def inner(self):
            time.sleep(0.003)

    trace = layers.LayerTrace("toy")
    trace.wrap(Toy, "outer", "a", count="outer.calls")
    trace.wrap(Toy, "inner", "b")
    trace.open_root()
    Toy().outer()
    trace.close_root()
    trace.uninstall()
    self_s = trace.self_times()
    assert sum(self_s.values()) == pytest.approx(trace.wall_s, rel=1e-9)
    assert self_s["b"] >= 0.003 and self_s["a"] >= 0.002
    assert trace.counts["outer.calls"] == 1
    assert [span[1] for span in trace.spans] == [2, 1, 0]   # parents
    assert Toy.outer.__name__ == "outer" and not hasattr(Toy.outer,
                                                         "__wrapped__")


def test_calibration_takes_slices_out_and_rescales():
    calibrator = calibrate.Calibrator()
    ref = calibrate.REFERENCE_S
    calibrator.slices = [(1.0, 1.0 + 2 * ref), (2.0, 2.0 + 2 * ref)]
    # The host ran at half the reference speed: 10 s of wall time, less
    # the slices, count as half as many calibrated seconds.
    assert calibrator.calibrated(0.0, 10.0) == pytest.approx(
        (10.0 - 4 * ref) / 2)
    stolen, factor = calibrator.window(5.0, 6.0)
    assert stolen == 0 and factor == pytest.approx(0.5)
