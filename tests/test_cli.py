"""CLI surface: subcommands, JSON reports, exit codes, determinism."""

import json
from fractions import Fraction as F

import simplexvol.bruteforce as bruteforce
from simplexvol import gen_random_rational, parse_point_file
from simplexvol.bruteforce import MinSimplexResult
from simplexvol.cli import main


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


def test_minvol_oracle_mismatch_exits_4(tmp_path, capsys, monkeypatch):
    path = write_points(tmp_path, "tetra.txt",
                        "dim 3\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n")

    def fake_oracle(ps, k, max_witnesses=None):
        return MinSimplexResult(min_squared_volume=F(1, 999),
                                witnesses=((0, 1, 2, 3),), count=7)

    monkeypatch.setattr(bruteforce, "min_volume_simplices", fake_oracle)
    code, out, _ = run(capsys, "minvol", path, "--oracle")
    assert code == 4
    assert report_of(out)["results"]["oracle"]["match"] is False


def test_minvol_deterministic_output(tmp_path, capsys):
    path = write_points(
        tmp_path, "pts.txt",
        "dim 3\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n2 3 1\n1 1 4\n")
    _, out1, _ = run(capsys, "minvol", path, "--report-witnesses")
    _, out2, _ = run(capsys, "minvol", path, "--report-witnesses")
    doc1, doc2 = report_of(out1), report_of(out2)
    doc1.pop("timing_seconds"), doc2.pop("timing_seconds")
    assert doc1 == doc2


def test_minarea(tmp_path, capsys):
    path = write_points(tmp_path, "sq.txt", "dim 2\n0 0\n1 0\n0 1\n1 1\n")
    code, out, _ = run(capsys, "minarea", path, "--oracle", "--report-witnesses")
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["min_area"] == "1/2"
    assert doc["results"]["count"] == 4
    assert doc["results"]["oracle"]["match"] is True
    assert doc["schema_version"] == 2
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
