"""CLI surface: subcommands, JSON reports, exit codes, determinism."""

import gc
import json
import math
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
from simplexvol import (gen_lattice2d, gen_lattice_slab3d, gen_min_ksimplex_lines,
                        gen_min_tetra_prism, gen_random_rational, load_point_file,
                        min_area_triangles, min_volume_tetrahedra, parse_point_file,
                        write_point_file)
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
TETRA = "dim 3\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
SQUARE = "dim 2\n0 0\n1 0\n0 1\n1 1\n"
# a 2x2x2 cube has many minimum tetrahedra
CUBE = "dim 3\n" + "".join(f"{x} {y} {z}\n" for x in (0, 1) for y in (0, 1) for z in (0, 1))


def mismatching_oracle(ps, k):
    """A brute-force oracle whose answer no reporter gives."""
    return MinSimplexResult(min_squared_volume=F(1, 999), witnesses=((0, 1, 2, 3),), count=7)


def one_face(ps, coords, tetra):
    """A charging kernel that charges every tetrahedron to one face."""
    return tuple(tetra), (0, 1, 2), "above", (0, 1), 1, 1, 1


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


def test_gen_names_the_flag_a_family_does_not_take(tmp_path, capsys):
    out_path = tmp_path / "x.txt"
    for family, flag, needs in (("prism3d", "--d", ()), ("lattice2d", "--k", ()),
                                ("lattice_slab3d", "--epsilon", ()),
                                ("dlines_distinct", "--k", ("--d", "3")),
                                ("random_rational", "--epsilon", ("--d", "3")),
                                ("prism3d", "--seed", ()),
                                ("klines", "--bound", ("--k", "2", "--d", "2"))):
        code, out, err = run(capsys, "gen", "--family", family, "--n", "8", *needs,
                             flag, "1", "--out", str(out_path))
        assert (code, out, err) == (2, "", f"error: {family} takes no {flag}\n")
        assert not out_path.exists()


def test_gen_names_the_flag_a_family_needs(tmp_path, capsys):
    out_path = tmp_path / "x.txt"
    for family, flag, given in (("klines", "--d", ("--k", "2")), ("klines", "--k", ("--d", "2")),
                                ("dlines_distinct", "--d", ()), ("random_rational", "--d", ())):
        code, out, err = run(capsys, "gen", "--family", family, "--n", "8", *given,
                             "--out", str(out_path))
        assert (code, out, err) == (2, "", f"error: {family} needs {flag}\n")
        assert not out_path.exists()


def test_gen_random_rational_header_records_the_default_seed_and_bound(tmp_path, capsys):
    out_path = tmp_path / "x.txt"
    code, _, _ = run(capsys, "gen", "--family", "random_rational", "--n", "5", "--d", "2",
                     "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("# family random_rational\n# n 5\n# d 2\n"
                                           "# seed 0\n# bound 10\n")
    assert parse_point_file(out_path.read_text()) == gen_random_rational(5, 2, 0, bound=10)


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


def test_minvol_coincident_points_exits_2(tmp_path, capsys):
    # the point file refuses repeated points before the reporter sees them
    path = write_points(tmp_path, "one.txt", "dim 3\n" + "1 2 3\n" * 4)
    code, out, err = run(capsys, "minvol", path)
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "duplicate point" in err


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


def test_minvol_constant_axis_exits_3(tmp_path, capsys):
    # y is one value off the origin: the scan reduces it to 0 with factor 1
    path = write_points(tmp_path, "wall.txt", "dim 3\n" + "".join(
        f"{x} 7/3 {z}\n" for x in range(3) for z in range(-2, 2)))
    code, out, err = run(capsys, "minvol", path, "--report-witnesses")
    assert code == 3 and out == ""
    assert err == "error: all points are coplanar\n"


@pytest.mark.parametrize("command, dim", [("minvol", 3), ("minarea", 2)])
def test_oracle_refused_above_limit(tmp_path, capsys, monkeypatch, command, dim):
    def no_oracle(ps, k):
        raise AssertionError("brute force run")

    at_limit, above = (str(tmp_path / f"{n}.txt") for n in ("at", "above"))
    write_point_file(at_limit, gen_random_rational(cli.ORACLE_SIZE_LIMIT, dim, 2), [])
    write_point_file(above, gen_random_rational(cli.ORACLE_SIZE_LIMIT + 1, dim, 2), [])
    code, out, _ = run(capsys, command, at_limit, "--oracle")
    assert code == 0 and report_of(out)["results"]["oracle"]["match"] is True
    monkeypatch.setattr(bruteforce, "min_volume_simplices", no_oracle)
    code, out, err = run(capsys, command, above, "--oracle", "--report-witnesses")
    assert_one_error_line(code, out, err)
    assert err == (f"error: refusing brute-force oracle on {cli.ORACLE_SIZE_LIMIT + 1} points "
                   f"(limit {cli.ORACLE_SIZE_LIMIT})\n")
    # without the oracle the same file is solved
    assert run(capsys, command, above, "--report-witnesses")[0] == 0


def test_minvol_oracle_mismatch_exits_4(tmp_path, capsys, monkeypatch):
    path = write_points(tmp_path, "tetra.txt", TETRA)
    monkeypatch.setattr(bruteforce, "min_volume_simplices", mismatching_oracle)
    code, out, _ = run(capsys, "minvol", path, "--oracle")
    assert code == 4
    assert report_of(out)["results"]["oracle"]["match"] is False


def test_minvol_charging_bound_exceeded_exits_4(tmp_path, capsys, monkeypatch):
    # charge all of the cube's minimum tetrahedra to one face
    path = write_points(tmp_path, "cube.txt", CUBE)
    monkeypatch.setattr(charging, "_charge", one_face)
    code, out, err = run(capsys, "minvol", path, "--check-charging")
    assert code == 4
    assert out == ""
    assert err.startswith("error: charging bound exceeded:")
    assert err.count("\n") == 1 and "Traceback" not in err


# Every documented exit code of every subcommand: 0 success, 2 usage or
# constraint error, 3 degenerate input, 4 verification failed.  Each code a
# subcommand reaches has its runs, as (point file text or None, arguments
# after the subcommand, (module, name, replacement) patches), followed on
# some failing runs by the one error line that they must print; None marks a
# code the subcommand cannot reach.  {points} and {out} in the arguments
# stand for the point file and an output path.
EXIT_CODES = {
    "gen": {
        0: [(None, ["--family", "prism3d", "--n", "8", "--out", "{out}"], ())],
        2: [(None, ["--family", "prism3d", "--n", "10", "--out", "{out}"], ()),
            # fewer than two points per line, so no minimum to state
            (None, ["--family", "klines", "--n", "-4", "--k", "2", "--d", "2", "--out", "{out}"], ()),
            (None, ["--family", "klines", "--n", "2", "--k", "2", "--d", "2", "--out", "{out}"], ()),
            (None, ["--family", "lattice2d", "--n", "-4", "--out", "{out}"], ()),
            (None, ["--family", "lattice_slab3d", "--n", "-4", "--out", "{out}"], ()),
            # a flag that the family does not take
            (None, ["--family", "prism3d", "--n", "8", "--d", "2", "--out", "{out}"], ()),
            (None, ["--family", "lattice2d", "--n", "9", "--k", "3", "--out", "{out}"], ()),
            (None, ["--family", "dlines_distinct", "--n", "7", "--d", "3", "--epsilon", "1/5",
                    "--out", "{out}"], ()),
            (None, ["--family", "prism3d", "--n", "8", "--seed", "5", "--out", "{out}"], ()),
            (None, ["--family", "lattice2d", "--n", "9", "--bound", "3", "--out", "{out}"], ()),
            # a flag that the family needs, left out
            (None, ["--family", "klines", "--n", "8", "--k", "2", "--out", "{out}"], ()),
            (None, ["--family", "random_rational", "--n", "8", "--out", "{out}"], ())],
        3: None,  # gen builds no simplex: it writes the points or refuses the parameters
        4: None,  # gen verifies nothing
    },
    "minvol": {
        0: [(TETRA, ["{points}", "--oracle", "--report-witnesses", "--check-charging"], ())],
        2: [(SQUARE, ["{points}"], ()),
            # the parser refuses to compute 10**exponent
            ("dim 1\n1e3\n", ["{points}", "--oracle", "--report-witnesses", "--check-charging"],
             (), "error: line 2: bad rational value (decimal exponent refused in '1e3')")],
        3: [(COPLANAR, ["{points}", "--oracle", "--check-charging"], ())],
        4: [(TETRA, ["{points}", "--oracle"], ((bruteforce, "min_volume_simplices",
                                                mismatching_oracle),)),
            (CUBE, ["{points}", "--check-charging"], ((charging, "_charge", one_face),))],
    },
    "minarea": {
        0: [(SQUARE, ["{points}", "--oracle", "--report-witnesses"], ())],
        2: [(TETRA, ["{points}"], ())],
        3: [("dim 2\n0 0\n1 1\n2 2\n3 3\n", ["{points}", "--oracle"], ())],
        4: [(SQUARE, ["{points}", "--oracle"], ((bruteforce, "min_volume_simplices",
                                                 mismatching_oracle),))],
    },
    "distinct": {
        0: [(TETRA, ["{points}", "--common-face", "exhaustive"], ())],
        2: [("0 0 0\n", ["{points}"], ())],
        3: [(COPLANAR, ["{points}"], ())],
        4: None,  # distinct verifies nothing
    },
    "count": {
        0: [(TETRA, ["{points}", "--volume", "1/6"], ())],
        2: [(TETRA, ["{points}", "--volume", "0"], ())],
        3: None,  # a degenerate set counts 0 simplices
        4: None,  # count verifies nothing
    },
    "bench": {
        0: [(None, ["--family", "random3d", "--sizes", "8"], ())],
        2: [(None, ["--family", "lattice2d", "--sizes", "8"], ()),
            # too few points to span a simplex
            (None, ["--family", "random3d", "--sizes", "3"], ()),
            (None, ["--family", "lattice_slab3d", "--sizes", "2"], ()),
            # no run to time
            (None, ["--family", "random3d", "--sizes", "8", "--repeat", "0"], ()),
            (None, ["--family", "random3d", "--sizes", "8", "--repeat", "-4"], ())],
        3: None,  # every family builds sets with a positive minimum at every size it accepts
        4: None,  # bench verifies nothing
    },
}


@pytest.mark.parametrize("command", list(EXIT_CODES))
def test_every_subcommand_reaches_its_documented_exit_codes(tmp_path, capsys, monkeypatch,
                                                            command):
    assert set(EXIT_CODES) == {name[4:] for name in dir(cli) if name.startswith("cmd_")}
    assert sorted(EXIT_CODES[command]) == [0, 2, 3, 4]
    for code, runs in EXIT_CODES[command].items():
        for text, argv, patches, *line in runs or ():
            points = write_points(tmp_path, "points.txt", text) if text else None
            out_path = tmp_path / f"out-{code}.txt"
            argv = [a.format(points=points, out=out_path) for a in argv]
            with monkeypatch.context() as patch:
                for module, name, replacement in patches:
                    patch.setattr(module, name, replacement)
                got, out, err = run(capsys, command, *argv)
            assert got == code, (command, argv, err)
            if code == 0 or code == 4 and "--oracle" in argv:
                # an oracle mismatch still prints the report
                assert err == ""
                if command == "gen":
                    assert out == "" and out_path.exists()
                    continue
                doc = report_of(out)
                assert doc["command"] == command
                if code == 4:
                    assert doc["results"]["oracle"]["match"] is False
            else:
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1, err
                if line:
                    assert err == f"{line[0]}\n"


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


def assert_same_text(got, want):
    """got == want, reported by the first difference: pytest's own diff of
    two long one-line strings takes minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        lo = max(at - 60, 0)
        pytest.fail(f"texts differ at {at}: {got[lo:at + 60]!r} != {want[lo:at + 60]!r}")


def records_of(report):
    """The contributing records of a min_volume_tetrahedra report as the
    JSON objects that minvol prints, made from the library's records."""
    return [{"plane": {"normal": list(summary.key.normal), "offset": summary.key.offset},
             "n_points": summary.n_points, "n_lines": summary.n_lines,
             "min_area_sq": str(summary.min_area_sq), "min_area_count": summary.count,
             "side": slab.side, "dist_sq": str(slab.dist_sq), "nearest_count": slab.count}
            for summary, slab in report.contributing]


@pytest.mark.parametrize("ps", [
    gen_min_tetra_prism(16).points,
    # the sets of the verification run: 20 and 30 points of the 5x5x5
    # box, 20 points with coordinates up to 10^20, the k-lines set and the
    # two sets on either side of the scan's float limit
    gen_random_rational(20, 3, seed=1, bound=2),
    gen_random_rational(30, 3, seed=1, bound=2),
    gen_random_rational(20, 3, seed=0, bound=10 ** 20),
    gen_min_ksimplex_lines(24, 3, 3, epsilon=F(1, 5)).points,
    load_point_file(os.path.join(os.path.dirname(__file__), "data", "span5792.txt")),
    load_point_file(os.path.join(os.path.dirname(__file__), "data", "span5793.txt")),
], ids=["prism16", "box-subset20", "box-subset30", "big20", "klines24", "span5792", "span5793"])
def test_verification_run_prints_the_json_of_the_library_report(tmp_path, capsys, ps):
    # byte for byte: the document minvol prints equals json.dumps of one
    # built from the library's report, oracle and charging check
    path = str(tmp_path / "points.txt")
    write_point_file(path, ps, [])
    code, out, _ = run(capsys, "minvol", path, "--report-witnesses", "--oracle",
                       "--check-charging")
    assert code == 0
    printed = report_of(out)
    ps = load_point_file(path)
    report = min_volume_tetrahedra(ps)
    oracle = bruteforce.min_volume_simplices(ps, 3)
    check = charging.verify_charging(ps)
    doc = {
        "schema_version": cli.SCHEMA_VERSION,
        "command": "minvol",
        "input_digest": simplexvol.content_digest(ps),
        "parameters": {"oracle": True, "report_witnesses": True, "check_charging": True},
        "results": {
            "min_volume": str(report.min_volume),
            "min_volume_sq": str(report.min_volume ** 2),
            "count": report.count,
            "sum_face_products": 4 * report.count,
            "n_planes": report.n_planes,
            "witnesses": [list(w) for w in report.witnesses],
            "contributing": records_of(report),
            "oracle": {"match": True, "min_squared_volume": str(oracle.min_squared_volume),
                       "count": oracle.count},
            "charging": {"max_per_face": check.max_per_face,
                         "max_per_face_side": check.max_per_face_side,
                         "n_witnesses": check.n_witnesses},
        },
        "timing_seconds": printed["timing_seconds"],
    }
    assert_same_text(out, json.dumps(doc, sort_keys=True) + "\n")
    # each tetrahedron once per face: the printed records' facet times apex
    # counts sum to four times the count
    results = printed["results"]
    assert len(results["witnesses"]) == results["count"]
    faces = sum(r["min_area_count"] * r["nearest_count"] for r in results["contributing"])
    assert faces == results["sum_face_products"] == 4 * results["count"]


@pytest.mark.parametrize("ps", [
    gen_lattice2d(25),
    # the 2D sets of the verification run
    gen_random_rational(20, 2, seed=0, bound=10 ** 20),
    gen_min_ksimplex_lines(20, 2, 2, epsilon=F(1, 7)).points,
], ids=["lattice25", "big20-2d", "klines20-2d"])
def test_minarea_verification_run_prints_the_json_of_the_library_report(tmp_path, capsys, ps):
    # byte for byte, as for minvol: minarea has no records and no charging check
    path = str(tmp_path / "points.txt")
    write_point_file(path, ps, [])
    code, out, _ = run(capsys, "minarea", path, "--report-witnesses", "--oracle")
    assert code == 0
    printed = report_of(out)
    ps = load_point_file(path)
    report = min_area_triangles(ps)
    oracle = bruteforce.min_volume_simplices(ps, 2)
    doc = {
        "schema_version": cli.SCHEMA_VERSION,
        "command": "minarea",
        "input_digest": simplexvol.content_digest(ps),
        "parameters": {"oracle": True, "report_witnesses": True},
        "results": {
            "min_area": str(report.min_area),
            "min_area_sq": str(report.min_area ** 2),
            "count": report.count,
            "sum_side_products": 3 * report.count,
            "n_lines": report.n_lines,
            "witnesses": [list(w) for w in report.witnesses],
            "oracle": {"match": True, "min_squared_volume": str(oracle.min_squared_volume),
                       "count": oracle.count},
        },
        "timing_seconds": printed["timing_seconds"],
    }
    assert_same_text(out, json.dumps(doc, sort_keys=True) + "\n")
    assert len(printed["results"]["witnesses"]) == printed["results"]["count"]


@pytest.mark.parametrize("command, ps", [
    ("minvol", gen_min_tetra_prism(16).points),
    ("minvol", gen_random_rational(20, 3, seed=0, bound=10 ** 20)),
    ("minarea", gen_lattice2d(25)),
    ("minarea", gen_min_ksimplex_lines(20, 2, 2, epsilon=F(1, 7)).points),
], ids=["minvol-prism16", "minvol-big20", "minarea-lattice25", "minarea-klines20-2d"])
def test_witness_free_run_prints_the_json_of_the_library_report(tmp_path, capsys, command, ps):
    path = str(tmp_path / "points.txt")
    write_point_file(path, ps, [])
    code, out, _ = run(capsys, command, path)
    assert code == 0
    ps = load_point_file(path)
    if command == "minvol":
        report = min_volume_tetrahedra(ps, witnesses=False)
        parameters = {"oracle": False, "report_witnesses": False, "check_charging": False}
        results = {"min_volume": str(report.min_volume),
                   "min_volume_sq": str(report.min_volume ** 2),
                   "sum_face_products": 4 * report.count, "n_planes": report.n_planes}
    else:
        report = min_area_triangles(ps, witnesses=False)
        parameters = {"oracle": False, "report_witnesses": False}
        results = {"min_area": str(report.min_area), "min_area_sq": str(report.min_area ** 2),
                   "sum_side_products": 3 * report.count, "n_lines": report.n_lines}
    doc = {
        "schema_version": cli.SCHEMA_VERSION,
        "command": command,
        "input_digest": simplexvol.content_digest(ps),
        "parameters": parameters,
        "results": dict(results, count=report.count),
        "timing_seconds": report_of(out)["timing_seconds"],
    }
    assert_same_text(out, json.dumps(doc, sort_keys=True) + "\n")


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
    text = cli._contributing_json(*solved)
    report = min_volume_tetrahedra(ps)
    assert_records_match(json.loads(text), report)
    assert_same_text(text, json.dumps(records_of(report), sort_keys=True))


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


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_witness_runs_pause_and_restore_the_collector(tmp_path, capsys, monkeypatch, enabled):
    # the witness build runs with the cyclic collector paused, and every run
    # leaves it as it found it, also when the run fails
    flags = ("--oracle", "--report-witnesses", "--check-charging")
    prism = gen_min_tetra_prism(16).points
    prism_path, coplanar_path = str(tmp_path / "prism.txt"), write_points(tmp_path, "c.txt", COPLANAR)
    write_point_file(prism_path, prism, [])
    scan, during = reporter._scan, []

    def watched(*args):
        during.append(gc.isenabled())
        return scan(*args)

    monkeypatch.setattr(reporter, "_scan", watched)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        runs = [  # (call, its result, whether it builds witnesses)
            (lambda: min_volume_tetrahedra(prism).count, 576, True),
            (lambda: min_volume_tetrahedra(prism, witnesses=False).count, 576, False),
            (lambda: min_area_triangles(gen_lattice2d(25)).count > 0, True, True),
            (lambda: run(capsys, "minvol", prism_path, *flags)[0], 0, True),
            (lambda: run(capsys, "minvol", coplanar_path, *flags)[0], 3, True),
        ]
        for call, expected, paused in runs:
            assert call() == expected
            assert during.pop() is (enabled and not paused)
            assert gc.isenabled() is enabled
        with pytest.raises(simplexvol.AllDegenerate):
            min_volume_tetrahedra(parse_point_file(COPLANAR))
        assert during.pop() is False and gc.isenabled() is enabled
        monkeypatch.setattr(charging, "_charge", one_face)
        assert run(capsys, "minvol", prism_path, *flags)[0] == 4
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("command", ["minvol", "minarea"])
def test_oracle_charging_and_encoding_run_with_the_collector_paused(tmp_path, capsys,
                                                                    monkeypatch, command):
    # they run while the witness list is alive, so they stay in the paused block
    ps = gen_min_tetra_prism(16).points if command == "minvol" else gen_lattice2d(25)
    path = str(tmp_path / "points.txt")
    write_point_file(path, ps, [])
    seen = {}

    def watched(name, fn):
        def call(*args, **kwargs):
            seen[name] = gc.isenabled()
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(bruteforce, "min_volume_simplices",
                        watched("oracle", bruteforce.min_volume_simplices))
    monkeypatch.setattr(cli, "verify_charging", watched("charging", cli.verify_charging))
    monkeypatch.setattr(cli, "_emit", watched("emit", cli._emit))
    flags = ["--oracle", "--report-witnesses"] + ["--check-charging"] * (command == "minvol")
    was = gc.isenabled()
    gc.enable()
    try:
        assert run(capsys, command, path, *flags)[0] == 0
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == dict(oracle=False, emit=False, **{"charging": False} if command == "minvol"
                        else {})


@pytest.mark.parametrize("command, ps, flags", [
    ("minvol", gen_min_tetra_prism(16).points, ["--oracle", "--report-witnesses", "--check-charging"]),
    ("minarea", gen_lattice2d(100), ["--report-witnesses"]),
], ids=["minvol", "minarea"])
def test_no_collection_walks_the_witnesses_after_a_run(tmp_path, capsys, command, ps, flags):
    # the run's objects are freed before the collector resumes, so a
    # collection at its end finds a young generation smaller than the
    # witness list alone
    path = str(tmp_path / "points.txt")
    write_point_file(path, ps, [])
    code, out, _ = run(capsys, command, path, *flags)  # warms every cache
    n_witnesses = len(report_of(out)["results"]["witnesses"])
    young = []

    def record(phase, info):
        if phase == "start":
            young.append(len(gc.get_objects(0)))

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(record)
    try:
        for _ in range(3):
            assert run(capsys, command, path, *flags)[0] == 0
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was else gc.disable)()
    assert all(n < n_witnesses for n in young), (young, n_witnesses)


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


def expected_comments(path):
    """{name: value} of the "# expected_<name> <value>" comments that gen
    writes into a point file."""
    with open(path) as fh:
        return dict(line[len("# expected_"):].split() for line in fh
                    if line.startswith("# expected_"))


@pytest.mark.parametrize("family, command, want", [
    (["prism3d", "--n", "128"], ["minvol"],
     {"count": (380928, "count"), "min_volume": ("1/49152", "min_volume")}),
    (["klines", "--n", "20", "--k", "2", "--d", "2", "--epsilon", "1/7"], ["minarea"],
     {"count": (180, "count"), "min_area_sq": ("1/196", "min_squared_volume")}),
    (["klines", "--n", "24", "--k", "3", "--d", "3", "--epsilon", "1/5"],
     ["count", "--volume", "1/30"], {"count": (1344, "count")}),
    (["klines", "--n", "24", "--k", "2", "--d", "3", "--epsilon", "1/5"],
     ["count", "--k", "2", "--volume", "1/100"], {"count": (264, "count")}),
    (["dlines_distinct", "--n", "13", "--d", "3"], ["distinct", "--common-face", "heuristic"],
     {"distinct_count": (4, "distinct"), "common_face.distinct_count": (4, "distinct")}),
], ids=["minvol-prism128", "minarea-klines20-2d", "count-klines24", "count-klines24-k2",
        "distinct-dlines13"])
def test_commands_give_the_closed_forms_that_gen_writes(tmp_path, capsys, family, command, want):
    # want maps a results field, dotted into nested objects, to its value
    # and to the expected_* comment that states it
    path = str(tmp_path / "points.txt")
    assert main(["gen", "--family", *family, "--out", path]) == 0
    expected = expected_comments(path)
    code, out, err = run(capsys, command[0], path, *command[1:])
    assert (code, err) == (0, "")
    doc = report_of(out)
    for field, (value, comment) in want.items():
        got = doc["results"]
        for key in field.split("."):
            got = got[key]
        assert (got, str(value)) == (value, expected[comment]), field
    if command[0] == "count":  # the target is the least volume, squared below full dimension
        volume = F(doc["parameters"]["volume"])
        squared = volume ** 2 if doc["parameters"]["comparison"] == "volume" else volume
        assert squared == F(expected["min_squared_volume"])


@pytest.mark.parametrize("token", ["1e3", "1E-2", "2.5e1"])
def test_decimal_exponent_refused_on_the_rational_flags(tmp_path, capsys, token):
    # --volume and --epsilon take the point-file parser's refusal: exit 2,
    # one error line and no report
    path = write_points(tmp_path, "tetra.txt", "dim 3\n0 0 0\n1 0 0\n0 2 0\n0 0 3\n")
    out_path = str(tmp_path / "prism.txt")
    for argv in (["count", path, "--volume", token],
                 ["gen", "--family", "prism3d", "--n", "8", "--epsilon", token, "--out", out_path],
                 ["gen", "--family", "klines", "--n", "8", "--k", "2", "--d", "2",
                  "--epsilon", token, "--out", out_path]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: decimal exponent refused in {token!r}\n"
    assert not os.path.exists(out_path)


def test_count_k_out_of_range_exits_2(tmp_path, capsys):
    path = write_points(tmp_path, "tetra.txt",
                        "dim 3\n0 0 0\n1 0 0\n0 2 0\n0 0 3\n")
    code, _, _ = run(capsys, "count", path, "--volume", "1", "--k", "5")
    assert code == 2


@pytest.mark.parametrize("command, extra", [
    ("distinct", []), ("count", ["--volume", "1/2"]),
])
def test_brute_force_refused_above_subset_limit(tmp_path, capsys, monkeypatch,
                                                command, extra):
    # both commands visit the C(n, 3) triangles of a planar set: 182 points
    # are just under the limit, 183 just over it
    assert math.comb(182, 3) <= cli.SUBSET_LIMIT < math.comb(183, 3)
    grid = gen_lattice2d(196).points
    under, over = (str(tmp_path / f"{n}.txt") for n in (182, 183))
    write_point_file(under, simplexvol.PointSet(grid[:182]), [])
    write_point_file(over, simplexvol.PointSet(grid[:183]), [])
    code, out, _ = run(capsys, command, under, *extra)
    assert code == 0 and report_of(out)["results"]

    def no_brute_force(*args, **kwargs):
        raise AssertionError("brute force run")

    monkeypatch.setattr(bruteforce, "count_simplices_with_volume", no_brute_force)
    monkeypatch.setattr(bruteforce, "distinct_volumes", no_brute_force)
    code, out, err = run(capsys, command, over, *extra)
    assert_one_error_line(code, out, err)
    assert f"C(183, 3) = {math.comb(183, 3)} subsets (limit {cli.SUBSET_LIMIT})" in err


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
