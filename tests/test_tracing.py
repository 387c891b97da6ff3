"""The benchmark's tracer wraps package functions by module and attribute
name, and its runner reads one name from the command line module, so a
rename in the package fails here instead of in a benchmark run."""

import sys
from pathlib import Path

import pytest

import simplexvol.cli as cli
from simplexvol import gen_lattice2d, gen_min_tetra_prism, write_point_file

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


@pytest.mark.parametrize("command, ps", [
    ("minvol", gen_min_tetra_prism(16).points),
    ("minarea", gen_lattice2d(25)),
], ids=["minvol", "minarea"])
def test_witness_free_runs_call_the_public_reporter_once(tmp_path, capsys, monkeypatch,
                                                         command, ps):
    # the tracer times the reporter through these two names of the command
    # line module (reporter.call_s); a witness run builds its report
    # through neither
    calls = []

    def counted(name):
        original = getattr(cli, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for name in ("min_volume_tetrahedra", "min_area_triangles"):
        monkeypatch.setattr(cli, name, counted(name))
    path = str(tmp_path / "points.txt")
    write_point_file(path, ps, [])
    expected = {"minvol": "min_volume_tetrahedra", "minarea": "min_area_triangles"}[command]
    assert cli.main([command, path]) == 0
    assert calls == [expected]
    calls.clear()
    assert cli.main([command, path, "--report-witnesses", "--oracle"]) == 0
    assert calls == []
    capsys.readouterr()
