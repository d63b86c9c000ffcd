"""``repro validate``: the report passes, fails, and stays byte-stable.

The three properties CI leans on: a healthy family grades all-PASS
with intervals in every value column; fixed seeds produce identical
report bytes; and the injected broken-counter family comes out FAILED
with the tripped invariant named — the harness can actually fail.
"""

import pytest

from repro.cli import main as cli_main
from repro.stats import validate
from repro.stats.validate import (
    FAIL,
    PASS,
    SERVING_FAMILIES,
    run_validation,
    validation_families,
)

DURATION_NS = 300_000.0


@pytest.fixture(scope="module")
def adaptive_report():
    return run_validation(families=["adaptive"], seeds=3,
                          duration_ns=DURATION_NS)


def test_healthy_family_grades_all_pass(adaptive_report):
    assert adaptive_report.rows
    assert adaptive_report.ok
    assert not adaptive_report.failures()
    checks = {row.check for row in adaptive_report.rows}
    # Measurement, invariant, and engine-agreement rows all present.
    assert "p99[alpha]" in checks
    assert "invariant:flow-conservation" in checks
    assert {"engine:counts", "engine:decisions", "engine:p50_ns",
            "engine:p99_ns", "engine:goodput_gbps"} <= checks


def test_values_carry_intervals(adaptive_report):
    p99_rows = [r for r in adaptive_report.rows
                if r.check.startswith("p99[")]
    assert p99_rows
    for row in p99_rows:
        assert "±" in row.value


def test_markdown_is_byte_stable(adaptive_report):
    again = run_validation(families=["adaptive"], seeds=3,
                           duration_ns=DURATION_NS)
    assert again.to_markdown() == adaptive_report.to_markdown()
    assert again.to_json() == adaptive_report.to_json()
    md = adaptive_report.to_markdown()
    assert "All" in md and "checks passed." in md
    assert "| family | check | value | expected | verdict |" in md


def test_broken_counter_fails_naming_the_invariant():
    report = run_validation(families=["broken-counter"], seeds=1,
                            duration_ns=DURATION_NS)
    assert not report.ok
    failed = {row.check for row in report.failures()}
    assert "invariant:flow-conservation" in failed
    assert "invariant:littles-law" in failed
    md = report.to_markdown()
    assert "FAILED" in md
    assert "broken-counter/invariant:flow-conservation" in md


def test_all_excludes_the_injected_family():
    assert "broken-counter" not in validation_families()
    assert "broken-counter" in validation_families(include_injected=True)
    assert set(SERVING_FAMILIES) <= set(validation_families())
    assert "cluster-fault" in validation_families()


def test_a_family_named_beside_all_still_runs(monkeypatch):
    # ``all`` shrunk to one cheap family: the union logic is what counts.
    monkeypatch.setattr(validate, "validation_families",
                        lambda include_injected=False: (
                            ("fig11-partition", "broken-counter")
                            if include_injected else ("fig11-partition",)))
    report = run_validation(families=["all", "broken-counter"], seeds=1,
                            duration_ns=DURATION_NS)
    assert report.families == ("fig11-partition", "broken-counter")
    assert not report.ok
    assert {row.family for row in report.failures()} == {"broken-counter"}


def test_cluster_fault_family_grades_each_clause():
    report = run_validation(families=["cluster-fault"], seeds=2,
                            duration_ns=160_000.0)
    assert [row.check for row in report.rows] == [
        "cluster:jobs-identity", "cluster:empty-plan-baseline",
        "cluster:kill-respawn"]
    assert report.ok, report.failures()
    assert all(row.value == "2 of 2 seeds identical" for row in report.rows)


def test_unknown_family_is_rejected():
    with pytest.raises(ValueError, match="no-such-family"):
        run_validation(families=["no-such-family"])


def test_figure_families_pass():
    report = run_validation(families=["fig4-dma", "fig11-partition"])
    assert report.ok
    by_family = {row.family for row in report.rows}
    assert by_family == {"fig4-dma", "fig11-partition"}
    # The partition rows prove determinism: zero half-width required.
    partition = [r for r in report.rows if r.family == "fig11-partition"]
    assert all(r.verdict == PASS for r in partition)
    assert any("± 0.0" in r.value for r in partition)


def test_cli_pass_path_writes_report(tmp_path, capsys):
    out = tmp_path / "verification_report.md"
    code = cli_main(["validate", "--families", "adaptive",
                     "--seeds", "3", "--duration", str(DURATION_NS),
                     "--out", str(out), "--check"])
    assert code == 0
    text = out.read_text()
    assert "# Verification report" in text
    assert FAIL not in text.split("|")[0]  # no failures section
    assert "checks passed." in text
    assert "repro validate" in capsys.readouterr().out


def test_cli_broken_counter_exits_nonzero(capsys):
    code = cli_main(["validate", "--families", "broken-counter",
                     "--seeds", "1", "--duration", str(DURATION_NS)])
    assert code == 1
    err = capsys.readouterr().err
    assert "validation failed" in err
    assert "flow-conservation" in err


def test_cli_json_output(capsys):
    import json

    code = cli_main(["validate", "--families", "fig11-partition",
                     "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert all(row["verdict"] == PASS for row in payload["rows"])


def test_nonpositive_duration_is_rejected():
    with pytest.raises(ValueError, match="duration_ns"):
        run_validation(families=["adaptive"], duration_ns=0.0)
