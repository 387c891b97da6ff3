"""CLI surface: subcommands, JSON reports, exit codes, determinism."""

import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

import simplexvol
import simplexvol.bruteforce as bruteforce
import simplexvol.charging as charging
import simplexvol.cli as cli
import simplexvol.reporter as reporter
from simplexvol import (gen_lattice2d, gen_lattice_slab3d, gen_min_tetra_prism,
                        gen_random_rational, load_point_file, min_area_triangles,
                        min_volume_tetrahedra, parse_point_file, write_point_file)
from simplexvol.bruteforce import MinSimplexResult
from simplexvol.cli import BENCH_FAMILIES, _build_parser, _git_revision, main
from helpers import PRIME_DENOMINATORS_3D


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(stdout: str) -> dict:
    return json.loads(stdout)


def write_points(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


COPLANAR = "dim 3\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n2 5 0\n"


def test_gen_prism_writes_expected_comments(tmp_path, capsys):
    out_path = tmp_path / "prism.txt"
    code, _, _ = run(capsys, "gen", "--family", "prism3d", "--n", "8",
                     "--epsilon", "1/64", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "# expected_count 48" in text
    assert "# expected_min_volume 1/192" in text
    ps = parse_point_file(text)
    assert len(ps) == 8 and ps.dim == 3


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "gen", "--family", "dlines_distinct", "--n", "7", "--d", "3",
        "--out", str(a))
    run(capsys, "gen", "--family", "dlines_distinct", "--n", "7", "--d", "3",
        "--out", str(b))
    assert a.read_text() == b.read_text()
    assert "# expected_distinct 2" in a.read_text()


def test_gen_bad_n_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--family", "prism3d", "--n", "10",
                       "--out", str(tmp_path / "x.txt"))
    assert code == 2
    assert "error" in err


def test_minvol_prism(tmp_path, capsys):
    out_path = tmp_path / "prism.txt"
    run(capsys, "gen", "--family", "prism3d", "--n", "8", "--epsilon", "1/64",
        "--out", str(out_path))
    code, out, _ = run(capsys, "minvol", str(out_path), "--oracle",
                       "--report-witnesses", "--check-charging")
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["min_volume"] == "1/192"
    assert doc["results"]["count"] == 48
    assert doc["results"]["sum_face_products"] == 192
    assert doc["results"]["oracle"]["match"] is True
    assert len(doc["results"]["witnesses"]) == 48
    assert doc["results"]["charging"]["max_per_face"] <= 4
    assert doc["results"]["charging"]["max_per_face_side"] <= 2
    assert doc["input_digest"]
    # one compact line with sorted keys
    assert out == json.dumps(doc, sort_keys=True) + "\n"


def test_minvol_coplanar_exits_3(tmp_path, capsys):
    path = write_points(tmp_path, "flat.txt", COPLANAR)
    code, _, err = run(capsys, "minvol", path)
    assert code == 3
    assert "coplanar" in err


def test_minvol_wrong_dimension_exits_2(tmp_path, capsys):
    path = write_points(tmp_path, "flat2d.txt", "dim 2\n0 0\n1 0\n0 1\n")
    code, _, _ = run(capsys, "minvol", path)
    assert code == 2


def test_minvol_missing_file_exits_2(capsys):
    code, _, _ = run(capsys, "minvol", "/nonexistent/points.txt")
    assert code == 2


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, extra", [
    ("minvol", []), ("minarea", []), ("distinct", []), ("count", ["--volume", "1"]),
])
def test_directory_input_exits_2(tmp_path, capsys, command, extra):
    assert_one_error_line(*run(capsys, command, str(tmp_path), *extra))


def test_gen_out_directory_exits_2(tmp_path, capsys):
    assert_one_error_line(*run(capsys, "gen", "--family", "prism3d", "--n", "8",
                               "--out", str(tmp_path)))


def test_minvol_oracle_mismatch_exits_4(tmp_path, capsys, monkeypatch):
    path = write_points(tmp_path, "tetra.txt",
                        "dim 3\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n")

    def fake_oracle(ps, k):
        return MinSimplexResult(min_squared_volume=F(1, 999),
                                witnesses=((0, 1, 2, 3),), count=7)

    monkeypatch.setattr(bruteforce, "min_volume_simplices", fake_oracle)
    code, out, _ = run(capsys, "minvol", path, "--oracle")
    assert code == 4
    assert report_of(out)["results"]["oracle"]["match"] is False


def test_minvol_charging_bound_exceeded_exits_4(tmp_path, capsys, monkeypatch):
    # a 2x2x2 cube has many minimum tetrahedra; charge all of them to one face
    path = write_points(tmp_path, "cube.txt", "dim 3\n" + "".join(
        f"{x} {y} {z}\n" for x in (0, 1) for y in (0, 1) for z in (0, 1)))

    def one_face(ps, coords, tetra):
        return tuple(tetra), (0, 1, 2), "above", (0, 1), 1, 1, 1

    monkeypatch.setattr(charging, "_charge", one_face)
    code, out, err = run(capsys, "minvol", path, "--check-charging")
    assert code == 4
    assert out == ""
    assert err.startswith("error: charging bound exceeded:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_minvol_deterministic_output(tmp_path, capsys):
    path = write_points(
        tmp_path, "pts.txt",
        "dim 3\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n2 3 1\n1 1 4\n")
    _, out1, _ = run(capsys, "minvol", path, "--report-witnesses")
    _, out2, _ = run(capsys, "minvol", path, "--report-witnesses")
    doc1, doc2 = report_of(out1), report_of(out2)
    doc1.pop("timing_seconds"), doc2.pop("timing_seconds")
    assert doc1 == doc2


def assert_records_match(records, report):
    """The JSON records equal the library's (summary, side record) pairs, in
    order, with every rational parsed back exactly."""
    assert [(rec["plane"]["normal"], rec["plane"]["offset"], rec["side"], rec["n_points"],
             rec["n_lines"], F(rec["min_area_sq"]), rec["min_area_count"], F(rec["dist_sq"]),
             rec["nearest_count"]) for rec in records] == [
        (list(summary.key.normal), summary.key.offset, slab.side, summary.n_points,
         summary.n_lines, summary.min_area_sq, summary.count, slab.dist_sq, slab.count)
        for summary, slab in report.contributing]


@pytest.mark.parametrize("points, volume, volume_sq", [
    (PRIME_DENOMINATORS_3D, "1/540", "1/291600"),
    (gen_min_tetra_prism(16).points, "1/768", "1/589824"),
    ([(0, 0, 0), (6, 0, 0), (0, 6, 0), (0, 0, 6), (6, 6, 6)], "36", "1296"),
    (gen_lattice_slab3d(18), "1/2", "1/4"),
    # 20 points of the 5x5x5 box, as in the verification run of perfbench
    (gen_random_rational(20, 3, seed=1, bound=2), "1/6", "1/36"),
], ids=["prime-denominators", "prism16", "integer-volume", "lattice-slab18", "box-subset20"])
def test_minvol_contributing_json_matches_the_library(tmp_path, capsys, points, volume, volume_sq):
    path = str(tmp_path / "points.txt")
    write_point_file(path, simplexvol.PointSet(points), [])
    code, out, _ = run(capsys, "minvol", path, "--report-witnesses")
    assert code == 0
    results = report_of(out)["results"]
    assert (results["min_volume"], results["min_volume_sq"]) == (volume, volume_sq)
    report = min_volume_tetrahedra(load_point_file(path))
    assert results["witnesses"] == [list(w) for w in report.witnesses]
    assert_records_match(results["contributing"], report)


@pytest.mark.parametrize("ps", [
    simplexvol.PointSet(gen_min_tetra_prism(16).points.points
                        + gen_min_tetra_prism(16).points.points[:5], allow_duplicates=True),
    simplexvol.PointSet(PRIME_DENOMINATORS_3D.points + PRIME_DENOMINATORS_3D.points[2:5]
                        + PRIME_DENOMINATORS_3D.points[2:3], allow_duplicates=True),
], ids=["prism16-duplicates", "prime-denominators-duplicates"])
def test_contributing_json_weighs_coincident_points(ps):
    # the CLI rejects duplicate points, so only a direct call reaches sites
    # that hold several input points
    solved = reporter._minimal(ps, 3, True)[4]
    assert max(map(len, solved[1])) > 1
    records = json.loads(json.dumps(cli._contributing_json(*solved)))
    assert_records_match(records, min_volume_tetrahedra(ps))


@pytest.mark.parametrize("command, flags", [
    ("minvol", ["--oracle"]),
    ("minvol", ["--check-charging"]),
    ("minvol", ["--oracle", "--check-charging"]),
    ("minarea", ["--report-witnesses"]),
    ("minarea", ["--oracle"]),
    ("minarea", ["--oracle", "--report-witnesses"]),
], ids=["minvol-oracle", "minvol-charging", "minvol-oracle-charging", "minarea-witnesses",
        "minarea-oracle", "minarea-oracle-witnesses"])
def test_witness_list_runs_build_no_records(tmp_path, capsys, monkeypatch, command, flags):
    ps = gen_min_tetra_prism(16).points if command == "minvol" else gen_lattice2d(25)
    path = str(tmp_path / "points.txt")
    write_point_file(path, ps, [])
    code, out, _ = run(capsys, command, path, *flags)

    def no_rows(*args):
        raise AssertionError("contributing records built")

    monkeypatch.setattr(reporter, "_rows", no_rows)
    monkeypatch.setattr(cli, "_rows", no_rows)
    patched_code, patched_out, _ = run(capsys, command, path, *flags)
    assert code == patched_code == 0
    doc, patched = report_of(out), report_of(patched_out)
    doc.pop("timing_seconds"), patched.pop("timing_seconds")
    assert doc == patched
    # the control: a run that builds records reaches the patched routine
    with pytest.raises(AssertionError, match="records built"):
        if command == "minvol":
            main(["minvol", path, "--report-witnesses"])
        else:
            min_area_triangles(ps)


def test_minarea(tmp_path, capsys):
    path = write_points(tmp_path, "sq.txt", "dim 2\n0 0\n1 0\n0 1\n1 1\n")
    code, out, _ = run(capsys, "minarea", path, "--oracle", "--report-witnesses")
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["min_area"] == "1/2"
    assert doc["results"]["count"] == 4
    assert doc["results"]["oracle"]["match"] is True
    assert doc["schema_version"] == 3
    assert "threads" not in doc["parameters"]


def test_minarea_collinear_exits_3(tmp_path, capsys):
    path = write_points(tmp_path, "line.txt", "dim 2\n0 0\n1 1\n2 2\n3 3\n")
    code, _, _ = run(capsys, "minarea", path)
    assert code == 3


def test_distinct(tmp_path, capsys):
    gen_path = tmp_path / "dlines.txt"
    run(capsys, "gen", "--family", "dlines_distinct", "--n", "7", "--d", "3",
        "--out", str(gen_path))
    code, out, _ = run(capsys, "distinct", str(gen_path),
                       "--common-face", "exhaustive")
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["distinct_count"] == 2
    assert doc["results"]["common_face"]["distinct_count"] >= 2


def test_distinct_hyperplanar_exits_3(tmp_path, capsys):
    path = write_points(tmp_path, "flat.txt", COPLANAR)
    code, _, _ = run(capsys, "distinct", path)
    assert code == 3


def test_count(tmp_path, capsys):
    path = write_points(tmp_path, "tetra.txt",
                        "dim 3\n0 0 0\n1 0 0\n0 2 0\n0 0 3\n")
    code, out, _ = run(capsys, "count", path, "--volume", "1")
    assert code == 0
    assert report_of(out)["results"]["count"] == 1
    code, out, _ = run(capsys, "count", path, "--volume", "1000")
    assert code == 0
    assert report_of(out)["results"]["count"] == 0


def test_count_k_out_of_range_exits_2(tmp_path, capsys):
    path = write_points(tmp_path, "tetra.txt",
                        "dim 3\n0 0 0\n1 0 0\n0 2 0\n0 0 3\n")
    code, _, _ = run(capsys, "count", path, "--volume", "1", "--k", "5")
    assert code == 2


def test_bench_reports_slope(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "8,16", "--repeat", "1")
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["counts"] == [48, 576]
    assert isinstance(doc["results"]["loglog_slope"], float)


def test_bench_records_environment(capsys):
    code, out, _ = run(capsys, "bench", "--family", "random3d", "--sizes", "8")
    assert code == 0
    env = report_of(out)["environment"]
    assert env["python"] == "{}.{}.{}".format(*sys.version_info)
    assert env["cpu_count"] == os.cpu_count()
    # a commit hash inside a git checkout, null outside one
    assert env["git_revision"] is None or re.fullmatch("[0-9a-f]{40}(-dirty)?",
                                                       env["git_revision"])


def test_bench_repeated_size_has_no_slope(capsys):
    code, out, _ = run(capsys, "bench", "--family", "random3d", "--sizes", "20,20")
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["sizes"] == [20, 20]
    assert doc["results"]["loglog_slope"] is None


def test_bench_random2d(capsys):
    code, out, _ = run(capsys, "bench", "--family", "random2d", "--sizes", "6,12",
                       "--with-oracle")
    assert code == 0
    doc = report_of(out)
    assert doc["parameters"]["family"] == "random2d"
    assert doc["results"]["counts"] == [
        bruteforce.min_volume_simplices(gen_random_rational(n, 2, 0, bound=10 ** 4), 2).count
        for n in (6, 12)]
    assert None not in doc["results"]["oracle_seconds"]
    assert isinstance(doc["results"]["loglog_slope"], float)


def test_bench_random3d(capsys):
    code, out, _ = run(capsys, "bench", "--family", "random3d", "--sizes", "6,12",
                       "--with-oracle")
    assert code == 0
    doc = report_of(out)
    assert doc["parameters"]["family"] == "random3d"
    assert doc["results"]["counts"] == [
        bruteforce.min_volume_simplices(gen_random_rational(n, 3, 0, bound=1000), 3).count
        for n in (6, 12)]
    assert None not in doc["results"]["oracle_seconds"]
    assert isinstance(doc["results"]["loglog_slope"], float)


def test_bench_unknown_family_exits_2(capsys):
    code, _, _ = run(capsys, "bench", "--family", "lattice2d", "--sizes", "8")
    assert code == 2


def test_bench_empty_sizes_exits_2(capsys):
    code, _, _ = run(capsys, "bench", "--sizes", "")
    assert code == 2


def test_bench_oracle_refused_above_limit(capsys):
    code, out, err = run(capsys, "bench", "--sizes", "8,32", "--with-oracle")
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["oracle_seconds"][0] is not None
    assert doc["results"]["oracle_seconds"][1] is None
    assert "refusing" in err


def test_bench_lattice_slab3d(capsys):
    code, out, _ = run(capsys, "bench", "--family", "lattice_slab3d", "--sizes", "8,18",
                       "--with-oracle")
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["counts"] == [
        bruteforce.min_volume_simplices(gen_lattice_slab3d(n), 3).count for n in (8, 18)]
    assert None not in doc["results"]["oracle_seconds"]


@pytest.mark.parametrize("flag", [[], ["--witnesses"]], ids=["scan", "witnesses"])
def test_bench_witnesses_flag_reaches_the_reporter(capsys, monkeypatch, flag):
    build, reporter, dim = BENCH_FAMILIES["lattice_slab3d"]
    seen = []

    def spy(ps, witnesses):
        seen.append(witnesses)
        return reporter(ps, witnesses=witnesses)

    monkeypatch.setitem(BENCH_FAMILIES, "lattice_slab3d", (build, spy, dim))
    code, out, _ = run(capsys, "bench", "--family", "lattice_slab3d", "--sizes", "8,18",
                       "--repeat", "2", *flag)
    assert code == 0
    assert seen == [bool(flag)] * 4
    assert report_of(out)["parameters"]["witnesses"] is bool(flag)


def test_bench_lattice_slab3d_rejects_bad_size(capsys):
    code, _, err = run(capsys, "bench", "--family", "lattice_slab3d", "--sizes", "10")
    assert code == 2
    assert err.startswith("error:")


def test_one_parser_serves_every_call(tmp_path, capsys):
    # documents of in-process calls, made in turn on one cached parser, match
    # those of fresh processes apart from the timing
    assert _build_parser() is _build_parser()
    gen_path = tmp_path / "prism.txt"
    assert main(["gen", "--family", "prism3d", "--n", "8", "--out", str(gen_path)]) == 0
    flat = write_points(tmp_path, "sq.txt", "dim 2\n0 0\n1 0\n0 1\n1 1\n")
    calls = [
        ["minvol", str(gen_path), "--report-witnesses", "--check-charging"],
        ["minarea", flat, "--oracle"],
        ["count", str(gen_path), "--volume", "1/192"],
        ["distinct", str(gen_path)],
        ["minvol", flat],
        ["minvol", str(gen_path), "--oracle"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(simplexvol.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv in calls:
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "simplexvol.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (code, err) == (fresh.returncode, fresh.stderr)
        if out or fresh.stdout:
            doc, other = report_of(out), report_of(fresh.stdout)
            doc.pop("timing_seconds"), other.pop("timing_seconds")
            assert doc == other


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_revision_marks_dirty_trees(tmp_path, monkeypatch):
    # git must not find a repository above tmp_path
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    repo, outside = tmp_path / "repo", tmp_path / "outside"
    repo.mkdir()
    outside.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org", *args],
                       cwd=repo, check=True, capture_output=True, timeout=30)

    (repo / "points.txt").write_text("dim 2\n0 0\n")
    (repo / ".gitignore").write_text("*.log\n")
    git("init", "-q")
    assert _git_revision(str(repo)) is None  # no commit yet
    git("add", "points.txt", ".gitignore")
    git("commit", "-q", "-m", "points")
    git("tag", "-a", "v1", "-m", "a tag does not change the format")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
                          text=True, timeout=30, check=True).stdout.strip()
    assert _git_revision(str(repo)) == head
    (repo / "run.log").write_text("ignored files keep the tree clean\n")
    assert _git_revision(str(repo)) == head
    (repo / "points.txt").write_text("dim 2\n1 1\n")
    assert _git_revision(str(repo)) == head + "-dirty"
    (repo / "points.txt").write_text("dim 2\n0 0\n")
    assert _git_revision(str(repo)) == head
    (repo / "new.txt").write_text("dim 2\n2 2\n")
    assert _git_revision(str(repo)) == head + "-dirty"
    assert _git_revision(str(outside)) is None
