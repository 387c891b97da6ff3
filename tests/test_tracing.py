"""The benchmark's tracer wraps package functions by module and attribute
name, and its runner reads one name from the command line module, so a
rename in the package fails here instead of in a benchmark run."""

import sys
from pathlib import Path

import simplexvol.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_exist(monkeypatch):
    # no bytecode cache under perfbench/, which would change the benchmark's set-up time
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    missing = [(module.__name__, attr) for module, attr, _ in tracing.TARGETS
               if not hasattr(module, attr)]
    assert missing == []


def test_bench_runner_names_exist():
    # perfbench/bench.py clears this variable before every run, traced or not
    assert cli.THREADS_ENV == "SIMPLEXVOL_THREADS"
