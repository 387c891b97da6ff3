"""Point-file format: round trips, error reporting, digests."""

from fractions import Fraction as F

import pytest

from simplexvol import (
    PointSet,
    content_digest,
    count_simplices_with_volume,
    gen_min_ksimplex_lines,
    gen_min_tetra_prism,
    gen_random_rational,
    parse_point_file,
    serialize_point_set,
)


def test_round_trip_integers():
    ps = gen_random_rational(12, 3, seed=1, bound=9)
    assert parse_point_file(serialize_point_set(ps)) == ps


def test_round_trip_fractions():
    ps = gen_min_tetra_prism(8, F(1, 64)).points
    assert parse_point_file(serialize_point_set(ps)) == ps


def test_comments_and_blank_lines_ignored():
    text = "# generated file\n\ndim 2\n# a point\n1/2 -3\n0 7\n"
    ps = parse_point_file(text)
    assert ps.points == ((F(1, 2), -3), (0, 7))


def test_whitespace_normalization():
    a = parse_point_file("dim 2\n1   2\n3 4\n")
    b = parse_point_file("dim 2\n1 2\n3\t4\n")
    assert a == b


def test_missing_header():
    with pytest.raises(ValueError):
        parse_point_file("1 2\n3 4\n")


def test_bad_header():
    with pytest.raises(ValueError):
        parse_point_file("dim x\n1 2\n")
    with pytest.raises(ValueError):
        parse_point_file("dim 0\n")


def test_wrong_coordinate_count():
    with pytest.raises(ValueError):
        parse_point_file("dim 3\n1 2\n")


def test_bad_rational():
    with pytest.raises(ValueError):
        parse_point_file("dim 2\n1 nope\n")
    with pytest.raises(ValueError):
        parse_point_file("dim 2\n1 1/0\n")


def test_duplicate_points_rejected_by_default():
    text = "dim 2\n1 2\n1 2\n"
    with pytest.raises(ValueError):
        parse_point_file(text)
    assert len(parse_point_file(text, allow_duplicates=True)) == 2


def test_digest_ignores_comments_and_spacing():
    ps = PointSet([(1, 2), (F(1, 3), 4)])
    d1 = content_digest(ps)
    d2 = content_digest(parse_point_file(serialize_point_set(ps, comments=["hello"])))
    assert d1 == d2


def test_digest_distinguishes_content():
    a = content_digest(PointSet([(1, 2), (3, 4)]))
    b = content_digest(PointSet([(1, 2), (3, 5)]))
    assert a != b


LONG = "9" * 5000  # past the default limit of int() on decimal strings


@pytest.mark.parametrize("token", [
    "7", "-7", "+7", "007", "-0", "3/6", "-3/6", "1/0", "1.5", "3_000",
    "\u0661\u0662", "2\u00b2", "0x10", "--7", "-", "3/", "/3", "3/-6", "3/6/2", LONG,
    LONG + "/3",
])
def test_tokens_parse_as_fraction_does(token):
    # ints and int/int take a fast path; every token keeps the value or the
    # error of Fraction(token), whatever the Python version, except a decimal
    # exponent (test_decimal_exponent_refused)
    try:
        expected = F(token)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ValueError) as raised:
            parse_point_file(f"dim 1\n{token}\n")
        assert str(raised.value) == f"line 2: bad rational value ({exc})"
    else:
        (value,), = parse_point_file(f"dim 1\n{token}\n").points
        assert type(value) is F and value == expected


@pytest.mark.parametrize("token", ["1e3", "1E-2", "2.5e1"])
def test_decimal_exponent_refused(token):
    # Fraction(token) computes 10**exponent, unbounded in the token's length
    with pytest.raises(ValueError) as raised:
        parse_point_file(f"dim 1\n{token}\n")
    message = f"decimal exponent refused in {token!r}"
    assert str(raised.value) == f"line 2: bad rational value ({message})"


@pytest.mark.parametrize("token", ["1e3", "1E-2", "2.5e1"])
def test_library_strings_take_the_point_file_parser(token):
    # PointSet strings, generator epsilon and the count target refuse the
    # exponent as a point file does, and read every other token alike
    tetra = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    message = f"decimal exponent refused in {token!r}"
    for call in (lambda: PointSet([(token, 0)]),
                 lambda: gen_min_tetra_prism(8, epsilon=token),
                 lambda: gen_min_ksimplex_lines(8, 2, 2, epsilon=token),
                 lambda: count_simplices_with_volume(tetra, token, 3)):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message
    assert PointSet([("-3/6", "0.25")]).points == ((F(-1, 2), F(1, 4)),)
    assert count_simplices_with_volume(tetra, "1/6", 3).count == 1
    assert gen_min_tetra_prism(8, epsilon="1/64") == gen_min_tetra_prism(8, epsilon=F(1, 64))
