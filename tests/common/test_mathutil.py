import math

import pytest

from repro.common.mathutil import geomean, is_pow2, log2_int


class TestGeomean:
    def test_single_value(self):
        assert geomean([2.0]) == pytest.approx(2.0)

    def test_two_values(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_is_scale_invariant_ratio(self):
        a = geomean([0.5, 2.0])
        assert a == pytest.approx(1.0)

    def test_matches_log_definition(self):
        vals = [0.3, 1.7, 2.5, 0.9]
        expected = math.exp(sum(math.log(v) for v in vals) / len(vals))
        assert geomean(vals) == pytest.approx(expected)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])
        with pytest.raises(ValueError):
            geomean([1.0, -2.0])


class TestPow2:
    def test_powers(self):
        for k in range(12):
            assert is_pow2(1 << k)
            assert log2_int(1 << k) == k

    def test_non_powers(self):
        for n in (0, -1, 3, 6, 12, 1000):
            assert not is_pow2(n)

    def test_log2_rejects_non_powers(self):
        with pytest.raises(ValueError):
            log2_int(12)
