"""Construction generators: closed-form statistics against the oracles and
the structural properties that make the counting arguments work."""

from fractions import Fraction as F

import pytest

from simplexvol import (
    PointSet,
    count_simplices_with_volume,
    distinct_volumes,
    gen_distinct_volume_lines,
    gen_lattice2d,
    gen_lattice_slab3d,
    gen_min_ksimplex_lines,
    gen_min_tetra_prism,
    gen_random_rational,
    min_volume_simplices,
    squared_volume,
)


class TestPrism:
    def test_expected_counts_vs_oracle(self):
        for n, eps in ((8, F(1, 64)), (12, F(1, 256))):
            out = gen_min_tetra_prism(n, eps)
            result = min_volume_simplices(out.points, 3)
            assert result.count == out.expected["count"]
            assert result.min_squared_volume == out.expected["min_squared_volume"]

    def test_expected_formula(self):
        assert gen_min_tetra_prism(8).expected["count"] == 48
        assert gen_min_tetra_prism(12).expected["count"] == 216
        assert gen_min_tetra_prism(16).expected["count"] == 576

    def test_base_tetra_volume_one(self):
        # one point per line, zero offsets: the base tetra has volume 1
        out = gen_min_tetra_prism(8, F(1, 64))
        m = 8 // 4
        base = PointSet([out.points.points[i * m] for i in range(4)])
        from simplexvol import signed_volume
        assert abs(signed_volume(base, (0, 1, 2, 3))) == 1

    def test_witness_structure(self):
        out = gen_min_tetra_prism(8, F(1, 64))
        m = 2
        result = min_volume_simplices(out.points, 3)
        for wit in result.witnesses:
            lines = sorted(i // m for i in wit)
            doubled = {line for line in lines if lines.count(line) == 2}
            assert len(doubled) == 1  # two consecutive on one line
            pair = sorted(i for i in wit if i // m in doubled)
            assert pair[1] - pair[0] == 1
            assert len(set(lines)) == 3  # one point on each of two other lines

    def test_two_plus_two_is_flat(self):
        out = gen_min_tetra_prism(8, F(1, 64))
        # two points on each of two parallel lines: coplanar, zero volume
        from itertools import combinations
        m = 2
        for la, lb in combinations(range(4), 2):
            idx = (la * m, la * m + 1, lb * m, lb * m + 1)
            assert squared_volume(out.points, idx) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_min_tetra_prism(10)
        with pytest.raises(ValueError):
            gen_min_tetra_prism(4)
        with pytest.raises(ValueError):
            gen_min_tetra_prism(8, F(1, 32))  # above the 1/n^2 spacing cap
        with pytest.raises(TypeError):
            gen_min_tetra_prism(8, 0.01)


class TestKLines:
    @pytest.mark.parametrize("n,k,d", [(6, 2, 2), (6, 2, 3), (9, 3, 3),
                                       (8, 2, 4), (8, 4, 4), (4, 1, 2)])
    def test_counts_match_oracle(self, n, k, d):
        out = gen_min_ksimplex_lines(n, k, d, F(1, 8))
        result = min_volume_simplices(out.points, k)
        assert result.count == out.expected["count"]
        assert result.min_squared_volume == out.expected["min_squared_volume"]

    def test_nonzero_simplices_double_exactly_one_line(self):
        n, k, d = 9, 3, 3
        out = gen_min_ksimplex_lines(n, k, d, F(1, 8))
        m = n // k
        from itertools import combinations
        for idx in combinations(range(n), k + 1):
            if squared_volume(out.points, idx) > 0:
                lines = [i // m for i in idx]
                assert len(set(lines)) == k

    def test_volume_proportional_to_gap(self):
        out = gen_min_ksimplex_lines(8, 2, 2, F(1, 8))
        # doubled points at gaps 1, 2, 3 on line 0, apex on line 1
        v1 = squared_volume(out.points, (0, 1, 4))
        v2 = squared_volume(out.points, (0, 2, 4))
        v3 = squared_volume(out.points, (0, 3, 4))
        assert v2 == 4 * v1 and v3 == 9 * v1

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_min_ksimplex_lines(7, 2, 3, F(1, 8))
        with pytest.raises(ValueError):
            gen_min_ksimplex_lines(6, 4, 3, F(1, 8))

    @pytest.mark.parametrize("n,k,d", [(-4, 2, 2), (0, 1, 2), (2, 2, 2), (1, 1, 3), (4, 3, 3)])
    def test_fewer_than_two_points_per_line_refused(self, n, k, d):
        # every minimum takes two points on one line, so n/k < 2 has none
        with pytest.raises(ValueError, match="at least 2k"):
            gen_min_ksimplex_lines(n, k, d)

    def test_two_points_per_line_is_the_smallest(self):
        out = gen_min_ksimplex_lines(4, 2, 2)
        result = min_volume_simplices(out.points, 2)
        assert (result.count, result.min_squared_volume) == (
            out.expected["count"], out.expected["min_squared_volume"]) == (4, F(1, 4))


class TestDistinctLines:
    @pytest.mark.parametrize("d", [2, 3])
    def test_distinct_count_formula(self, d):
        for n in range(d + 1, 22):
            out = gen_distinct_volume_lines(n, d)
            assert out.expected["distinct"] == (n - 1) // d
            assert distinct_volumes(out.points).count == (n - 1) // d

    def test_minimal_case(self):
        out = gen_distinct_volume_lines(4, 3)
        assert distinct_volumes(out.points).count == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_distinct_volume_lines(3, 3)


class TestLattices:
    def test_lattice2d(self):
        grid = gen_lattice2d(9)
        assert len(grid) == 9 and grid.dim == 2
        with pytest.raises(ValueError):
            gen_lattice2d(8)

    def test_lattice2d_unit_area_count(self):
        assert count_simplices_with_volume(gen_lattice2d(9), F(1), 2).count == 32

    def test_single_cell_has_no_unit_triangle(self):
        assert count_simplices_with_volume(gen_lattice2d(4), F(1), 2).count == 0

    def test_slab_composition_rule(self):
        # every unit-area triangle in one copy + any point of the other copy
        # gives volume (1/3) * 1 * 3 = 1, so the slab count dominates
        for n in (8, 18):
            slab = gen_lattice_slab3d(n)
            unit_tetra = count_simplices_with_volume(slab, F(1), 3).count
            unit_tri = count_simplices_with_volume(gen_lattice2d(n // 2), F(1), 2).count
            assert unit_tetra >= unit_tri * (n // 2) * 2

    def test_slab_validation(self):
        with pytest.raises(ValueError):
            gen_lattice_slab3d(12)  # 6 is not a perfect square
        with pytest.raises(ValueError):
            gen_lattice_slab3d(9)

    def test_negative_sizes_refused_with_a_size_message(self):
        with pytest.raises(ValueError, match="lattice size must be a perfect square, got -4"):
            gen_lattice2d(-4)
        with pytest.raises(ValueError, match="slab size must be even and nonnegative, got -8"):
            gen_lattice_slab3d(-8)


class TestRandomRational:
    def test_seed_determinism(self):
        a = gen_random_rational(9, 3, seed=5, bound=7)
        b = gen_random_rational(9, 3, seed=5, bound=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = gen_random_rational(9, 3, seed=5, bound=7)
        b = gen_random_rational(9, 3, seed=6, bound=7)
        assert a != b

    def test_single_point(self):
        ps = gen_random_rational(1, 2, seed=0, bound=3)
        assert len(ps) == 1

    def test_distinct_points(self):
        ps = gen_random_rational(40, 2, seed=1, bound=4)
        assert len(set(ps.points)) == 40

    def test_capacity_check(self):
        with pytest.raises(ValueError):
            gen_random_rational(10, 1, seed=0, bound=4)  # only 9 slots

    def test_negative_n_refused(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            gen_random_rational(-3, 2, seed=0)
