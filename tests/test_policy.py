"""Tax trajectory representations, bounds and genome codecs."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from carbonopt.errors import GenomeError
from carbonopt.policy import (
    FREE,
    LINEAR,
    LinearPolicy,
    NonParametricPolicy,
    bounds,
    check_bounds,
    decode,
    encode,
    parse_policy_spec,
)


class TestPriceAt:
    def test_linear_direct_formula(self):
        assert LinearPolicy(gradient=2.0, intercept=50.0).price_at(10) == 70.0

    def test_linear_upper_corner(self):
        # steepest in-bounds line tops out just above 500 in the final year
        assert LinearPolicy(gradient=14.0, intercept=250.0).price_at(18) == 502.0

    def test_linear_lower_corner_goes_negative(self):
        # negative taxes are allowed: they act as subsidies
        assert LinearPolicy(gradient=-14.0, intercept=0.0).price_at(17) == -238.0

    def test_linear_is_affine_over_whole_horizon(self):
        policy = LinearPolicy(gradient=3.5, intercept=41.0)
        for y in range(1, 19):
            assert policy.price_at(y) == 3.5 * y + 41.0

    def test_nonparametric_lookup(self):
        policy = NonParametricPolicy(prices=(10.0, 20.0, 30.0))
        assert policy.price_at(1) == 10.0
        assert policy.price_at(3) == 30.0

    def test_index_out_of_horizon(self):
        policy = NonParametricPolicy(prices=(10.0, 20.0))
        with pytest.raises(IndexError):
            policy.price_at(0)
        with pytest.raises(IndexError):
            policy.price_at(3)
        with pytest.raises(IndexError):
            LinearPolicy(1.0, 1.0).price_at(0)


class TestBounds:
    def test_free_bounds(self):
        assert bounds(FREE) == [(0.0, 250.0)] * 18
        assert bounds(FREE, n_years=5) == [(0.0, 250.0)] * 5

    def test_linear_bounds(self):
        assert bounds(LINEAR) == [(-14.0, 14.0), (0.0, 250.0)]

    def test_unknown_kind(self):
        with pytest.raises(GenomeError):
            bounds("quadratic")


class TestCodec:
    def test_encode_linear(self):
        assert encode(LinearPolicy(gradient=3.0, intercept=100.0)) == [3.0, 100.0]

    def test_decode_rejects_out_of_bounds(self):
        with pytest.raises(GenomeError):
            decode([260.0] + [100.0] * 17, FREE)
        with pytest.raises(GenomeError):
            decode([-15.0, 100.0], LINEAR)

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(GenomeError):
            decode([1.0, 2.0, 3.0], LINEAR)
        with pytest.raises(GenomeError):
            decode([10.0] * 17, FREE)

    @given(st.lists(st.floats(0.0, 250.0, allow_nan=False), min_size=18, max_size=18))
    def test_free_round_trip(self, genome):
        assert encode(decode(genome, FREE)) == genome

    @given(
        st.floats(-14.0, 14.0, allow_nan=False),
        st.floats(0.0, 250.0, allow_nan=False),
    )
    def test_linear_round_trip(self, gradient, intercept):
        assert encode(decode([gradient, intercept], LINEAR)) == [gradient, intercept]

    def test_check_bounds(self):
        check_bounds(LinearPolicy(0.0, 0.0), 18)
        with pytest.raises(GenomeError):
            check_bounds(NonParametricPolicy(prices=(300.0,) * 18), 18)
        with pytest.raises(GenomeError):
            check_bounds(NonParametricPolicy(prices=(10.0,) * 6), 18)


class TestParseSpec:
    def test_flat(self):
        policy = parse_policy_spec("flat:100", 18)
        assert policy == NonParametricPolicy(prices=(100.0,) * 18)

    def test_flat_respects_horizon(self):
        assert len(parse_policy_spec("flat:0", 5).prices) == 5

    def test_linear(self):
        assert parse_policy_spec("linear:2,50", 18) == LinearPolicy(2.0, 50.0)

    def test_free(self):
        values = ",".join(str(v) for v in range(18))
        policy = parse_policy_spec(f"free:{values}", 18)
        assert policy.prices == tuple(float(v) for v in range(18))

    @pytest.mark.parametrize(
        "spec",
        ["bogus:1", "flat", "flat:1,2", "linear:1", "free:1,2", "linear:a,b", "flat:300"],
    )
    def test_malformed_specs(self, spec):
        with pytest.raises(GenomeError):
            parse_policy_spec(spec, 18)

    def test_flat_equals_constant_linear_prices(self):
        flat = parse_policy_spec("flat:75", 18)
        line = parse_policy_spec("linear:0,75", 18)
        for y in range(1, 19):
            assert flat.price_at(y) == line.price_at(y) == 75.0
