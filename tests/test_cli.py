"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import _parse_size, main
from repro.core.paths import CommPath, Opcode

_RACK = (pathlib.Path(__file__).resolve().parents[1] / "examples"
         / "rack_scenario.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_size():
    assert _parse_size("64") == 64
    assert _parse_size("4K") == 4096
    assert _parse_size("4KB") == 4096
    assert _parse_size("9M") == 9 << 20
    assert _parse_size("10G") == 10 << 30
    assert _parse_size("1.5K") == 1536
    with pytest.raises(Exception):
        _parse_size("abc")


def test_paths_command(capsys):
    code, out, _ = run(capsys, "paths")
    assert code == 0
    assert "SNIC ②" in out and "rnic-1" in out


def test_latency_command(capsys):
    code, out, _ = run(capsys, "latency", "--path", "snic1",
                       "--op", "read", "--payload", "64")
    assert code == 0
    assert "TOTAL" in out
    assert "2.6" in out  # ~2.65 us


def test_throughput_command(capsys):
    code, out, _ = run(capsys, "throughput", "--path", "snic2",
                       "--op", "write", "--payload", "64",
                       "--range", "1.5K")
    assert code == 0
    assert "22.7" in out
    assert "mem:soc" in out


def test_throughput_with_doorbell(capsys):
    code, out, _ = run(capsys, "throughput", "--path", "snic3-s2h",
                       "--op", "read", "--payload", "0",
                       "--requesters", "8", "--doorbell-batch", "16")
    assert code == 0
    assert "78.2" in out  # 29 M reqs/s x the 2.7x DB speedup


@pytest.mark.parametrize("figure", ["fig4", "fig7", "fig8", "fig9",
                                    "fig10", "fig11"])
def test_sweep_commands(capsys, figure):
    code, out, _ = run(capsys, "sweep", figure)
    assert code == 0
    assert "Fig" in out


@pytest.mark.parametrize("engine", ["scalar", "auto", "vector"])
def test_sweep_engine_flag(capsys, engine):
    # A sweep picks its solver backend itself; ``--engine`` names a
    # serving engine and belongs to ``serve`` only.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "fig4", "--engine", engine])
    assert exc.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--machines", "4"],
                                  ["--population-seed", "1"]])
def test_sweep_rejects_serving_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "fig4", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_sweep_profile_flag(capsys):
    code, out, _ = run(capsys, "sweep", "fig4", "--profile")
    assert code == 0
    assert "sweep stage profile" in out
    assert "grid_build" in out and "solve" in out


def test_compare_command(capsys):
    code, out, _ = run(capsys, "compare")
    assert code == 0
    assert "performance tax" in out
    assert "READ" in out and "WRITE" in out


def test_compare_catalog_device(capsys):
    code, out, _ = run(capsys, "compare", "--nic", "stingray-ps225")
    assert code == 0
    assert "stingray" in out


@pytest.mark.parametrize("figure", ["fig4", "fig7", "fig8", "fig9",
                                    "fig10", "fig11"])
def test_sweep_plot_mode(capsys, figure):
    code, out, _ = run(capsys, "sweep", figure, "--plot")
    assert code == 0
    assert "|" in out and "+" in out  # chart axes


def test_advise_command(capsys):
    code, out, _ = run(capsys, "advise", "--payload", "256",
                       "--read-fraction", "0.9", "--working-set", "8G")
    assert code == 0
    assert "SNIC ②" in out


def test_advise_with_transfer(capsys):
    code, out, _ = run(capsys, "advise", "--payload", "32M",
                       "--working-set", "2G", "--host-soc-transfer")
    assert code == 0
    assert "56 Gbps" in out
    assert "rule-p-minus-n" in out


def test_audit_command(tmp_path, capsys):
    flows = [
        {"path": "snic2", "op": "write", "payload": 64,
         "range_bytes": 1536, "label": "hot writes"},
        {"path": "snic2", "op": "read", "payload": 16 << 20,
         "label": "big reads"},
    ]
    path = tmp_path / "flows.json"
    path.write_text(json.dumps(flows))
    code, out, _ = run(capsys, "audit", str(path))
    assert code == 0
    assert "skew" in out and "hol" in out
    assert "hot writes" in out


def test_audit_clean(tmp_path, capsys):
    path = tmp_path / "flows.json"
    path.write_text(json.dumps([
        {"path": "snic2", "op": "read", "payload": 4096}]))
    code, out, _ = run(capsys, "audit", str(path))
    assert code == 0
    assert "no anomalies" in out


def test_audit_missing_file(capsys):
    code, _out, err = run(capsys, "audit", "/nonexistent/flows.json")
    assert code == 1
    assert "error" in err


def test_audit_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, _out, err = run(capsys, "audit", str(path))
    assert code == 1


def test_unknown_path_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["latency", "--path", "bogus"])


@pytest.mark.parametrize("argv", [
    ["serve", "--duration", "-5"],
    ["serve", "--duration", "nan"],
    ["validate", "--families", "adaptive", "--duration", "0"],
    ["validate", "--families", "cluster-fault", "--duration", "-100"]])
def test_non_positive_duration_is_an_argument_error(capsys, argv):
    # Refused before any run starts, naming the flag.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --duration" in capsys.readouterr().err


def test_crosscheck_is_not_a_command(capsys):
    # The engine grader runs under ``validate`` only.
    with pytest.raises(SystemExit) as exc:
        main(["crosscheck"])
    assert exc.value.code == 2
    assert "invalid choice: 'crosscheck'" in capsys.readouterr().err


# Every spelling the CLI and the old facade object accepted, and
# the member it names: values, lower-cased names and the bare Fig-2
# numbers ("3" is host->SoC), in any case and with "_" and "-"
# interchangeable.
_PATH_SPELLINGS = {
    "rnic-1": CommPath.RNIC1, "rnic1": CommPath.RNIC1,
    "snic-1": CommPath.SNIC1, "snic1": CommPath.SNIC1, "1": CommPath.SNIC1,
    "snic-2": CommPath.SNIC2, "snic2": CommPath.SNIC2, "2": CommPath.SNIC2,
    "snic-3-h2s": CommPath.SNIC3_H2S, "snic3_h2s": CommPath.SNIC3_H2S,
    "3": CommPath.SNIC3_H2S,
    "snic-3-s2h": CommPath.SNIC3_S2H, "snic3_s2h": CommPath.SNIC3_S2H,
}
_OP_SPELLINGS = {"read": Opcode.READ, "write": Opcode.WRITE,
                 "send": Opcode.SEND}


def _variants(spelling):
    swapped = spelling.translate(str.maketrans("_-", "-_"))
    return sorted({spelling, spelling.upper(), swapped, swapped.title()})


def test_path_and_op_spellings_match_enums(capsys, tmp_path, monkeypatch):
    expected = {}
    for path in CommPath:
        for op in Opcode:
            _code, out, _ = run(capsys, "latency", "--path", path.value,
                                "--op", op.value)
            expected[path, op] = out
    flows, named = [], []
    for spelling, path in _PATH_SPELLINGS.items():
        for variant in _variants(spelling):
            code, out, _ = run(capsys, "latency", "--path", variant)
            assert code == 0 and out == expected[path, Opcode.READ], variant
            flows.append({"path": variant, "op": "read", "payload": 64})
            named.append((path, Opcode.READ))
    for spelling, op in _OP_SPELLINGS.items():
        for variant in (spelling, spelling.upper(), spelling.title()):
            code, out, _ = run(capsys, "latency", "--path", "2",
                               "--op", variant)
            assert code == 0 and out == expected[CommPath.SNIC2, op], variant
            flows.append({"path": "snic-1", "op": variant, "payload": 64})
            named.append((CommPath.SNIC1, op))
    # ``audit`` reads the same spellings out of its JSON document.
    seen = []

    def record(testbed, audited):
        seen.extend(audited)
        return type("Clean", (), {"clean": True})()

    monkeypatch.setattr("repro.cli.detect_all", record)
    document = tmp_path / "flows.json"
    document.write_text(json.dumps(flows))
    code, out, _ = run(capsys, "audit", str(document))
    assert code == 0 and out == "no anomalies detected\n"
    assert [(flow.path, flow.op) for flow in seen] == named


def test_unknown_path_and_op_spellings_raise(capsys, tmp_path):
    for flag, value, message in (
            ("--path", "snic-9", "unknown path 'snic-9'; choose from rnic-1, "
                                 "snic-1, snic-2, snic-3-h2s, snic-3-s2h"),
            ("--path", "4", "unknown path '4'"),
            ("--op", "fetch", "unknown op 'fetch'; choose from read, write, "
                              "send")):
        with pytest.raises(SystemExit) as exc:
            main(["latency", flag, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    for flow, message in (({"path": "snic-9", "op": "read"}, "unknown path"),
                          ({"path": "snic-1", "op": "fetch"}, "unknown op")):
        document = tmp_path / "flows.json"
        document.write_text(json.dumps([dict(flow, payload=64)]))
        code, _out, err = run(capsys, "audit", str(document))
        assert code == 1
        assert err.startswith(f"error: {message}")


def test_trace_gen_and_solve_roundtrip(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code, msg, _ = run(capsys, "trace-gen", str(out), "--count", "200",
                       "--read-fraction", "0.8", "--payload", "256")
    assert code == 0
    assert "200 requests" in msg
    assert out.exists()

    code, table, _ = run(capsys, "trace-solve", str(out))
    assert code == 0
    assert "TOTAL" in table
    assert "read" in table and "write" in table


def test_trace_gen_validation(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code, _out, err = run(capsys, "trace-gen", str(out), "--count", "0")
    assert code == 1
    assert "error" in err


def test_trace_solve_missing_file(capsys):
    code, _out, err = run(capsys, "trace-solve", "/nonexistent.jsonl")
    assert code == 1


def test_trace_command_emits_chrome_json(capsys):
    code, out, _ = run(capsys, "trace", "--path", "3", "--verb", "write",
                       "--size", "4096")
    assert code == 0
    doc = json.loads(out)
    roots = [e for e in doc["traceEvents"]
             if e.get("ph") == "X" and e["name"] == "write:snic-3-h2s"]
    assert len(roots) == 1
    # The root complete-event spans the whole verb, start to CQE.
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert roots[0]["dur"] == max(e["ts"] + e["dur"] for e in spans)


def test_trace_command_numeric_path_shorthand(capsys):
    code, out, _ = run(capsys, "trace", "--path", "1", "--verb", "read")
    assert code == 0
    assert "read:snic-1" in out


def test_trace_command_report_and_tree(capsys):
    code, out, _ = run(capsys, "trace", "--path", "snic2", "--verb",
                       "write", "--size", "1K", "--report", "--tree",
                       "--telemetry")
    assert code == 0
    assert "path snic-2" in out and "TOTAL" in out
    assert "write:snic-2" in out  # tree rendering
    assert "counter deltas" in out and "pcie1" in out


def test_trace_command_writes_file(tmp_path, capsys):
    target = tmp_path / "spans.json"
    code, out, _ = run(capsys, "trace", "--path", "rnic-1", "--verb",
                       "read", "--count", "2", "--out", str(target))
    assert code == 0
    assert "perfetto" in out
    doc = json.loads(target.read_text())
    threads = [e for e in doc["traceEvents"]
               if e.get("ph") == "M" and e["name"] == "thread_name"]
    assert len(threads) == 2


def test_trace_command_rejects_bad_count(capsys):
    code, _out, err = run(capsys, "trace", "--count", "0")
    assert code == 1
    assert "error" in err


def test_serve_command(capsys):
    code, out, _ = run(capsys, "serve", "--duration", "150000",
                       "--decisions")
    assert code == 0
    assert "serve (adaptive" in out
    assert "alpha" in out and "gamma" in out
    assert "steady-state Gbps per path" in out
    assert "rate cap 56 Gbps" in out


def test_serve_engine_flag_selects_the_hybrid(capsys):
    code, out, _ = run(capsys, "serve", "--duration", "100000",
                       "--engine", "hybrid", "--json")
    assert code == 0
    assert json.loads(out)["engine"] == "hybrid"


def test_serve_cluster_takes_jobs_and_machines(capsys, tmp_path):
    from repro.api.schema import ClusterScenario, MachineDoc, SchedulerDoc
    from repro.workloads.population import PopulationSpec, RandomVar

    doc = tmp_path / "tiny.json"
    doc.write_text(ClusterScenario(
        name="tiny", duration_ns=60_000.0,
        machines=(MachineDoc(name="m", count=2),),
        populations=(PopulationSpec(
            name="pop", tenants=4, active_users=RandomVar.fixed(100),
            req_per_min=RandomVar.fixed(60)),),
        scheduler=SchedulerDoc(migrate=False)).to_json())
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "serve", "--cluster", str(doc),
                           "--machines", "3", "--population-seed", "4",
                           "--jobs", jobs, "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    machines = json.loads(outs[0])["machines"]
    assert [m["name"] for m in machines] == ["m00", "m01", "m02"]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_serve_cluster_refuses_a_rack_of_no_machines(capsys, count):
    # An argparse error, before the document is read: 0 must not fall
    # back to the document's own rack.
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--cluster", "examples/rack_scenario.json",
              "--machines", count])
    assert exc.value.code == 2
    assert "--machines: must be >= 1" in capsys.readouterr().err


def test_serve_cluster_names_the_json_path_of_a_bad_document(capsys,
                                                             tmp_path):
    raw = json.loads(_RACK.read_text())
    raw["scheduler"]["patience"] = None
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(raw))
    code, out, err = run(capsys, "serve", "--cluster", str(doc))
    assert (code, out) == (1, "")
    assert err == "error: scheduler.patience: expected an integer, got null\n"


def test_serve_command_static_json(capsys):
    import json as _json

    code, out, _ = run(capsys, "serve", "--duration", "100000",
                       "--static", "--json")
    assert code == 0
    payload = _json.loads(out)
    assert payload["adaptive"] is False
    assert {t["name"] for t in payload["tenants"]} == \
        {"alpha", "beta", "delta", "gamma"}


@pytest.mark.parametrize("flag", [
    ["--static"], ["--fault-plan", "plan.json"], ["--fault-seed", "0"],
    ["--fault-plan", "examples/cluster_chaos.json"], ["--duration", "5"],
    ["--seed", "9"], ["--fault-seed", "1"], ["--duration", "1500000"],
    ["--seed", "0"]])
def test_serve_cluster_rejects_flags_it_ignores(capsys, flag):
    # Checked before the scenario document is read or any run starts;
    # an explicit default value is refused too.
    code, _, err = run(capsys, "serve", "--cluster",
                       "examples/rack_scenario.json", *flag)
    assert code == 1
    assert f"{flag[0]} does not apply to --cluster" in err


@pytest.mark.parametrize("flag", [["--shards", "2"], ["--cross-traffic"]])
def test_serve_has_no_machine_partition_flags(capsys, flag):
    # Several machines are a --cluster document; the flags that dealt
    # the built-in mix over machines are gone.
    with pytest.raises(SystemExit) as exc:
        main(["serve", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in \
        capsys.readouterr().err


def test_serve_engine_flag_overrides_a_hybrid_document(capsys, tmp_path,
                                                      monkeypatch):
    import repro.cluster.run as cluster_run
    from repro.api.schema import ClusterScenario, MachineDoc
    from repro.workloads.population import PopulationSpec, RandomVar

    engines = []
    run_sharded = cluster_run.run_sharded

    def spy(plan, **kwargs):
        engines.append(kwargs["engine"])
        return run_sharded(plan, **kwargs)

    monkeypatch.setattr(cluster_run, "run_sharded", spy)

    doc = tmp_path / "hybrid.json"
    doc.write_text(ClusterScenario(
        name="tiny", duration_ns=40_000.0, engine="hybrid",
        machines=(MachineDoc(name="m", count=2),),
        populations=(PopulationSpec(
            name="pop", tenants=2, active_users=RandomVar.fixed(100),
            req_per_min=RandomVar.fixed(60)),)).to_json())
    for flag in ([], ["--engine", "event"], ["--engine", "hybrid"]):
        code, _, err = run(capsys, "serve", "--cluster", str(doc),
                           "--jobs", "1", *flag)
        assert code == 0, err
    assert engines == ["hybrid", "event", "hybrid"]


def test_one_shard_kill_and_respawn_changes_no_byte(capsys, tmp_path):
    code, plain, _ = run(capsys, "serve", "--json")
    assert code == 0
    incidents = tmp_path / "incidents.json"
    code, killed, err = run(capsys, "serve", "--kill-shard", "shard0",
                            "--kill-window", "2", "--json",
                            "--incident-report", str(incidents))
    assert code == 0, err
    assert json.loads(incidents.read_text())["respawns"] == 1
    assert killed == plain


def test_serve_check_audits_the_builtin_mix(capsys):
    code, out, _ = run(capsys, "serve", "--duration", "200000", "--check")
    assert code == 0
    assert "invariants:" in out and "all ok" in out
