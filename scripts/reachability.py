#!/usr/bin/env python
"""List the ``src/repro`` functions that no entry point reaches.

Runs every entry point in this process under a ``sys.setprofile``
hook: the examples, a set of CLI invocations covering every
subcommand (``serve`` in eleven modes: the built-in mix, a kill with
an incident report, and scenario documents with exports, a scenario
override, a chaos kill, a checkpoint and its resume and both kinds of
fault plan; all six sweeps, one plotted) and
``pytest benchmarks --benchmark-disable``.  Then it prints each
function defined under ``src/repro`` whose code never ran, and a total.
Worker processes (``--jobs N`` pools) are not traced, so the CLI calls
run their shards in-process.  Tests are not entry points: a function
that only ``tests/`` calls shows up here.

Usage::

    PYTHONPATH=src python scripts/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import pathlib
import runpy
import sys
import tempfile
import threading
from functools import partial

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
sys.path.insert(0, str(ROOT / "src"))


def _cli_invocations(tmp: pathlib.Path):
    flows = tmp / "flows.json"
    flows.write_text(json.dumps([
        {"path": "snic-2", "op": "write", "payload": 64,
         "range_bytes": 1536, "label": "hot writes"},
        {"path": "snic-2", "op": "read", "payload": 16 << 20}]))
    trace = str(tmp / "trace.jsonl")
    rack = str(ROOT / "examples" / "rack_scenario.json")
    ring = str(ROOT / "examples" / "ring_scenario.json")
    chaos = str(ROOT / "examples" / "cluster_chaos.json")
    faults = tmp / "faults.json"
    faults.write_text(json.dumps({"seed": 3, "faults": [
        {"kind": "packet-loss", "target": "pcie1", "rate": 0.01},
        {"kind": "soc-crash", "at": 400_000.0}]}))
    checkpoint = str(tmp / "checkpoint")
    return [
        ["paths"],
        ["latency"], ["latency", "--path", "3", "--op", "write",
                      "--payload", "4K"],
        ["throughput"], ["throughput", "--path", "snic-3-s2h", "--op", "read",
                         "--payload", "0", "--requesters", "8",
                         "--doorbell-batch", "16"],
        *(["sweep", fig] for fig in ("fig4", "fig7", "fig8", "fig9",
                                     "fig10", "fig11")),
        ["sweep", "fig9", "--profile", "--cache-stats"],
        ["compare"],
        ["advise", "--payload", "32M", "--working-set", "2G",
         "--host-soc-transfer"],
        ["audit", str(flows)],
        ["faults"],
        ["trace", "--tree", "--report", "--telemetry"],
        ["trace-gen", trace, "--count", "200"], ["trace-solve", trace],
        ["serve"], ["serve", "--static"], ["serve", "--engine", "hybrid"],
        ["serve", "--cluster", ring, "--jobs", "1", "--kill-shard",
         "shard1", "--kill-window", "2"],
        ["serve", "--kill-shard", "shard0",
         "--incident-report", str(tmp / "incidents.json")],
        ["serve", "--cluster", ring, "--jobs", "1",
         "--checkpoint-dir", checkpoint],
        ["serve", "--cluster", ring, "--jobs", "1",
         "--checkpoint-dir", checkpoint, "--resume"],
        ["serve", "--cluster", rack, "--jobs", "1", "--check"],
        ["serve", "--cluster", rack, "--machines", "6", "--jobs", "1"],
        ["serve", "--fault-plan", str(faults)],
        ["serve", "--cluster", ring, "--jobs", "1",
         "--cluster-fault-plan", chaos],
        ["sweep", "fig4", "--plot"],
        # The serving families at 1.5 ms, where every fault family
        # splices back to DES, and the cluster-fault family.
        ["validate", "--families", "cluster-fault",
         *(arg for family in ("adaptive", "static", "soc-crash",
                              "crash-recover", "packet-loss",
                              "fault-transient")
           for arg in ("--families", family)),
         "--duration", "1500000", "--seeds", "1"],
        ["validate", "--families", "all", "--out",
         str(tmp / "verification_report.md"), "--json"],
    ]


def _example(path: pathlib.Path) -> None:
    runpy.run_path(str(path), run_name="__main__")


def _run_entry_points(tmp: pathlib.Path) -> None:
    import pytest

    from repro.cli import main

    runs = [(" ".join(["repro", *argv]), partial(main, argv))
            for argv in _cli_invocations(tmp)]
    runs += [(f"examples/{path.name}", partial(_example, path))
             for path in sorted((ROOT / "examples").glob("*.py"))]
    runs.append(("pytest benchmarks", partial(pytest.main, [
        str(ROOT / "benchmarks"), "--benchmark-disable", "-q",
        "-p", "no:cacheprovider"])))
    for name, run in runs:
        print(f"running {name}", file=sys.stderr)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = run()
        except SystemExit as exc:
            code = exc.code
        if code not in (None, 0):
            print(f"  {name} exited with {code}", file=sys.stderr)


def _defined_functions():
    """``(file, first line, name) -> (lines, enclosing function key)``."""
    functions = {}
    for path in sorted(SRC.resolve().rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, parent):
            for child in ast.iter_child_nodes(node):
                key = parent
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    key = (str(path), first, child.name)
                    functions[key] = (child.end_lineno - first + 1, parent)
                visit(child, key)

        visit(tree, None)
    return functions


def main() -> int:
    reached = set()

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    old_cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)               # whatever an entry point writes
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            _run_entry_points(pathlib.Path(tmp))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(old_cwd)
    reached = {(os.path.realpath(path), line, name)
               for path, line, name in reached}
    functions = _defined_functions()
    unreached = sorted(key for key in functions if key not in reached)
    missing = set(unreached)
    lines = sum(size for key, (size, parent) in functions.items()
                if key in missing and parent not in missing)
    for path, line, name in unreached:
        print(f"{os.path.relpath(path, ROOT)}:{line} {name}")
    print(f"{len(unreached)} of {len(functions)} functions in src/repro "
          f"reached by no entry point ({lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
