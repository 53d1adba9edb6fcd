import math
import random

import pytest

from ifctp import CenterWidth, Interval, distance_to_ideal


class TestIntervalBasics:
    def test_add_endpoints(self):
        assert Interval(4, 8) + Interval(10, 30) == Interval(14, 38)

    def test_add_identity(self):
        assert Interval(0, 0) + Interval(19, 25) == Interval(19, 25)

    def test_add_a_number_raises(self):
        with pytest.raises(TypeError):
            Interval(1, 2) + 1

    def test_scale_positive(self):
        assert Interval(4, 8).scale(2) == Interval(8, 16)

    def test_scale_negative_swaps_limits(self):
        assert Interval(4, 8).scale(-1) == Interval(-8, -4)

    def test_scale_zero(self):
        assert Interval(10, 30).scale(0) == Interval(0, 0)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError, match="lo > hi"):
            Interval(8, 4)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Interval(0, math.inf)

    def test_degenerate_interval_is_valid(self):
        iv = Interval(5, 5)
        assert iv.width == 0 and iv.center == 5


class TestConversions:
    def test_to_center_width(self):
        assert Interval(4, 8).as_center_width() == CenterWidth(6, 2)

    def test_to_center_width_reference_objective(self):
        cw = Interval(672.82, 1010.88).as_center_width()
        assert cw.center == pytest.approx(841.85, abs=1e-9)
        assert cw.width == pytest.approx(169.03, abs=1e-9)

    def test_from_center_width(self):
        assert CenterWidth(830, 163).as_interval() == Interval(667, 993)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="width"):
            CenterWidth(10, -1)

    @pytest.mark.parametrize("center, width", [(math.inf, 1.0), (1.0, math.nan)])
    def test_non_finite_center_width_rejected(self, center, width):
        with pytest.raises(ValueError, match="center/width must be finite"):
            CenterWidth(center, width)


class TestDistance:
    def test_reference_distance(self):
        d = distance_to_ideal(CenterWidth(841.85, 169.03), CenterWidth(830, 163))
        assert d == pytest.approx(13.29, abs=0.01)

    def test_second_benchmark_distance(self):
        d = distance_to_ideal(CenterWidth(740, 27.5), CenterWidth(734.5, 26.75))
        assert d == pytest.approx(5.55, abs=0.01)

    def test_coincident_points(self):
        p = CenterWidth(12.5, 3.0)
        assert distance_to_ideal(p, p) == 0.0


def _random_cw(rng, span=1000.0):
    return CenterWidth(rng.uniform(-span, span), rng.uniform(0, span))


def _random_interval(rng, span=1000.0):
    a, b = sorted((rng.uniform(-span, span), rng.uniform(-span, span)))
    return Interval(a, b)


def _rel_close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class TestRandomizedProperties:
    N = 1000

    def test_add_commutes_and_associates(self):
        rng = random.Random(101)
        for _ in range(self.N):
            a, b, c = (_random_interval(rng) for _ in range(3))
            assert a + b == b + a
            lhs, rhs = (a + b) + c, a + (b + c)
            assert _rel_close(lhs.lo, rhs.lo) and _rel_close(lhs.hi, rhs.hi)

    def test_scale_composition(self):
        rng = random.Random(102)
        for _ in range(self.N):
            a = _random_interval(rng)
            g1, g2 = rng.uniform(-10, 10), rng.uniform(-10, 10)
            lhs = a.scale(g2).scale(g1)
            rhs = a.scale(g1 * g2)
            assert _rel_close(lhs.lo, rhs.lo) and _rel_close(lhs.hi, rhs.hi)

    def test_round_trips(self):
        rng = random.Random(103)
        for _ in range(self.N):
            iv = _random_interval(rng)
            back = iv.as_center_width().as_interval()
            assert _rel_close(back.lo, iv.lo) and _rel_close(back.hi, iv.hi)
            cw = _random_cw(rng)
            back_cw = cw.as_interval().as_center_width()
            assert _rel_close(back_cw.center, cw.center) and _rel_close(back_cw.width, cw.width)

    def test_distance_symmetry_and_triangle(self):
        rng = random.Random(104)
        for _ in range(self.N):
            p, q, r = (_random_cw(rng) for _ in range(3))
            assert distance_to_ideal(p, q) == distance_to_ideal(q, p)
            assert distance_to_ideal(p, r) <= (
                distance_to_ideal(p, q) + distance_to_ideal(q, r) + 1e-9)
            assert distance_to_ideal(p, q) >= 0.0

