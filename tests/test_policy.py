"""Tax trajectories as genomes: prices, bounds, decoding and specs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carbonopt.errors import GenomeError
from carbonopt.policy import (
    FREE,
    LINEAR,
    CarbonPolicy,
    bounds,
    check_bounds,
    decode,
    parse_policy_spec,
)


class TestPriceAt:
    def test_linear_direct_formula(self):
        assert CarbonPolicy(LINEAR, (2.0, 50.0)).price_at(10) == 70.0

    def test_linear_upper_corner(self):
        # steepest in-bounds line tops out just above 500 in the final year
        assert CarbonPolicy(LINEAR, (14.0, 250.0)).price_at(18) == 502.0

    def test_linear_lower_corner_goes_negative(self):
        # negative taxes are allowed: they act as subsidies
        assert CarbonPolicy(LINEAR, (-14.0, 0.0)).price_at(17) == -238.0

    def test_linear_is_affine_over_whole_horizon(self):
        policy = CarbonPolicy(LINEAR, (3.5, 41.0))
        for y in range(1, 19):
            assert policy.price_at(y) == 3.5 * y + 41.0

    def test_nonparametric_lookup(self):
        policy = CarbonPolicy(FREE, (10.0, 20.0, 30.0))
        assert policy.price_at(1) == 10.0
        assert policy.price_at(3) == 30.0

    def test_index_out_of_horizon(self):
        policy = CarbonPolicy(FREE, (10.0, 20.0))
        with pytest.raises(IndexError):
            policy.price_at(0)
        with pytest.raises(IndexError):
            policy.price_at(3)
        with pytest.raises(IndexError):
            CarbonPolicy(LINEAR, (1.0, 1.0)).price_at(0)


class TestBounds:
    def test_free_bounds(self):
        assert bounds(FREE, 18) == [(0.0, 250.0)] * 18
        assert bounds(FREE, n_years=5) == [(0.0, 250.0)] * 5

    def test_linear_bounds(self):
        assert bounds(LINEAR, 18) == [(-14.0, 14.0), (0.0, 250.0)]

    def test_unknown_kind(self):
        with pytest.raises(GenomeError):
            bounds("quadratic", 18)


class TestCodec:
    def test_linear_genes(self):
        assert decode([3.0, 100.0], LINEAR, 18) == CarbonPolicy(LINEAR, (3.0, 100.0))

    def test_decode_rejects_out_of_bounds(self):
        with pytest.raises(GenomeError):
            decode([260.0] + [100.0] * 17, FREE, 18)
        with pytest.raises(GenomeError):
            decode([-15.0, 100.0], LINEAR, 18)

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(GenomeError):
            decode([1.0, 2.0, 3.0], LINEAR, 18)
        with pytest.raises(GenomeError):
            decode([10.0] * 17, FREE, 18)

    @given(st.lists(st.floats(0.0, 250.0, allow_nan=False), min_size=18, max_size=18))
    def test_free_round_trip(self, genome):
        assert list(decode(genome, FREE, 18).genes) == genome

    @given(
        st.floats(-14.0, 14.0, allow_nan=False),
        st.floats(0.0, 250.0, allow_nan=False),
    )
    def test_linear_round_trip(self, gradient, intercept):
        assert decode([gradient, intercept], LINEAR, 18).genes == (gradient, intercept)

    def test_check_bounds(self):
        check_bounds(CarbonPolicy(LINEAR, (0.0, 0.0)), 18)
        with pytest.raises(GenomeError):
            check_bounds(CarbonPolicy(FREE, (300.0,) * 18), 18)
        with pytest.raises(GenomeError):
            check_bounds(CarbonPolicy(FREE, (10.0,) * 6), 18)

    def test_check_bounds_names_the_gene_at_fault(self):
        with pytest.raises(GenomeError, match=r"^gene 2 = 260.0 outside \[0.0, 250.0\] for kind 'free'$"):
            check_bounds(CarbonPolicy(FREE, (0.0, 10.0, 260.0)), 3)
        with pytest.raises(GenomeError, match=r"^linear genome must have 2 genes, got 3$"):
            check_bounds(CarbonPolicy(LINEAR, (1.0, 2.0, 3.0)), 18)
        with pytest.raises(GenomeError, match="unknown policy kind 'cubic'"):
            check_bounds(CarbonPolicy("cubic", (1.0,)), 18)

    def test_decode_makes_float_genes(self):
        policy = decode(np.array([3, 100]), LINEAR, 18)
        assert policy == CarbonPolicy(LINEAR, (3.0, 100.0))
        assert all(type(g) is float for g in policy.genes)


class TestParseSpec:
    def test_flat(self):
        policy = parse_policy_spec("flat:100", 18)
        assert policy == CarbonPolicy(FREE, (100.0,) * 18)

    def test_flat_respects_horizon(self):
        assert len(parse_policy_spec("flat:0", 5).genes) == 5

    def test_linear(self):
        assert parse_policy_spec("linear:2,50", 18) == CarbonPolicy(LINEAR, (2.0, 50.0))

    def test_free(self):
        values = ",".join(str(v) for v in range(18))
        policy = parse_policy_spec(f"free:{values}", 18)
        assert policy.genes == tuple(float(v) for v in range(18))

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
