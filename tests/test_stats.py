import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from probarg.stats import (
    ContingencyTable,
    SplitMix64,
    _hypergeom_draw,
    _sample_margin_fixed,
    fisher_exact_2x2,
    holm_bonferroni,
    monte_carlo_rxc,
)

from oracles import fisher_2x2_enumeration

SRC = str(Path(__file__).parent.parent / "src")


class TestContingencyTable:
    def test_margins(self):
        t = ContingencyTable(((1, 9), (11, 3)))
        assert t.row_sums == (10, 14)
        assert t.col_sums == (12, 12)
        assert t.total == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            ContingencyTable(((1, 2),))
        with pytest.raises(ValueError):
            ContingencyTable(((1, 2), (3,)))
        with pytest.raises(ValueError):
            ContingencyTable(((1, -2), (3, 4)))
        with pytest.raises(ValueError):
            ContingencyTable(((0, 0), (0, 0)))


class TestFisher:
    def test_frozen_value(self):
        t = ContingencyTable(((1, 9), (11, 3)))
        assert fisher_exact_2x2(t) == F(41, 14858)

    def test_matches_independent_enumeration(self):
        tables = [
            ((1, 9), (11, 3)),
            ((5, 0), (1, 4)),
            ((2, 3), (4, 2)),
            ((10, 10), (10, 10)),
            ((0, 7), (8, 1)),
        ]
        for counts in tables:
            t = ContingencyTable(counts)
            assert fisher_exact_2x2(t) == fisher_2x2_enumeration(t.counts)

    def test_invariances(self):
        t = ContingencyTable(((1, 9), (11, 3)))
        p = fisher_exact_2x2(t)
        assert fisher_exact_2x2(ContingencyTable(((11, 3), (1, 9)))) == p  # row swap
        assert fisher_exact_2x2(ContingencyTable(((9, 1), (3, 11)))) == p  # col swap
        assert fisher_exact_2x2(ContingencyTable(((1, 11), (9, 3)))) == p  # transpose

    def test_p_at_most_one(self):
        assert fisher_exact_2x2(ContingencyTable(((3, 3), (3, 3)))) == 1

    def test_rejects_larger_tables(self):
        with pytest.raises(ValueError):
            fisher_exact_2x2(ContingencyTable(((1, 2, 3), (4, 5, 6))))

    def test_scipy_cross_check(self):
        scipy = pytest.importorskip("scipy.stats")
        for counts in [((1, 9), (11, 3)), ((2, 3), (4, 2)), ((5, 0), (1, 4))]:
            ours = float(fisher_exact_2x2(ContingencyTable(counts)))
            theirs = scipy.fisher_exact(counts).pvalue
            assert math.isclose(ours, theirs, rel_tol=1e-12)


class TestSplitMix64:
    def test_reference_sequence(self):
        # first outputs for seed 0 of the standard splitmix64 stream
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_randbelow_range_and_determinism(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        xs = [a.randbelow(7) for _ in range(200)]
        assert xs == [b.randbelow(7) for _ in range(200)]
        assert set(xs) <= set(range(7))


class BoundedSplitMix64(SplitMix64):
    """Fails, where a randbelow that accepts no draw would loop forever."""

    outputs = 0

    def next_u64(self):
        self.outputs += 1
        assert self.outputs <= 10_000, "randbelow accepted no draw"
        return super().next_u64()


class TestWideRandbelow:
    """randbelow(n) for n > 2^64 concatenates ceil(n.bit_length() / 64)
    outputs; n <= 2^64 keeps the single 64-bit draw."""

    @pytest.mark.parametrize("n", [2**64 + 1, math.comb(70, 35)])
    def test_terminates_in_range_and_deterministic(self, n):
        a, b = BoundedSplitMix64(5), BoundedSplitMix64(5)
        xs = [a.randbelow(n) for _ in range(200)]
        assert xs == [b.randbelow(n) for _ in range(200)]
        assert all(0 <= x < n for x in xs)
        assert len(set(xs)) == 200
        assert xs != [SplitMix64(6).randbelow(n) for _ in range(200)]

    def test_wide_draw_is_most_significant_first(self):
        n = 2**64 + 1
        rng, raw = BoundedSplitMix64(11), SplitMix64(11)
        for _ in range(50):
            x = rng.randbelow(n)
            while True:
                u = (raw.next_u64() << 64) | raw.next_u64()
                if u < 2**128 - 2**128 % n:
                    break
            assert x == u % n

    def test_up_to_2_64_one_output_per_draw(self):
        for n in (7, 2**63 + 5, 2**64):
            rng, raw = SplitMix64(3), SplitMix64(3)
            for _ in range(50):
                x = rng.randbelow(n)
                u = raw.next_u64()
                while u >= 2**64 - 2**64 % n:
                    u = raw.next_u64()
                assert x == u % n

    def test_cli_mc_on_a_table_past_2_64(self, tmp_path):
        """A 2x2 table totalling 70 draws below comb(70, 35) > 2^64."""
        table = tmp_path / "t70.csv"
        table.write_text("20,15\n17,18\n")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
        )
        res = subprocess.run(
            [sys.executable, "-m", "probarg", "stats", "mc", str(table), "--seed", "42"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        match = re.match(r"p ~= (\S+) \+/- (\S+) ", res.stdout)
        estimate, halfwidth = map(float, match.groups())
        exact = float(fisher_exact_2x2(ContingencyTable(((20, 15), (17, 18)))))
        assert 0 < halfwidth and abs(estimate - exact) <= 3 * halfwidth


class TestHypergeometric:
    def test_masses_sum_to_one_random_margins(self):
        rng = SplitMix64(1234)
        for _ in range(50):
            n = 2 + rng.randbelow(40)
            c = rng.randbelow(n + 1)
            r = rng.randbelow(n + 1)
            lo = max(0, r - (n - c))
            hi = min(c, r)
            total = sum(
                F(math.comb(c, k) * math.comb(n - c, r - k), math.comb(n, r))
                for k in range(lo, hi + 1)
            )
            assert total == 1, (n, c, r)

    def test_draw_in_support(self):
        rng = SplitMix64(7)
        for _ in range(300):
            k = _hypergeom_draw(20, 8, 10, rng)
            assert max(0, 10 - 12) <= k <= min(8, 10)

    def test_sample_preserves_margins(self):
        rng = SplitMix64(99)
        rows, cols = (10, 14, 6), (12, 12, 6)
        for _ in range(100):
            s = _sample_margin_fixed(rows, cols, rng)
            assert tuple(sum(r) for r in s) == rows
            assert tuple(sum(c) for c in zip(*s)) == cols
            assert all(x >= 0 for r in s for x in r)


class TestMonteCarlo:
    def test_deterministic_for_seed(self):
        t = ContingencyTable(((1, 9), (11, 3)))
        a = monte_carlo_rxc(t, 2000, seed=42)
        b = monte_carlo_rxc(t, 2000, seed=42)
        assert a == b

    def test_identical_rows_p_near_one(self):
        t = ContingencyTable(((5, 5), (5, 5)))
        res = monte_carlo_rxc(t, 2000, seed=1)
        assert res.p_estimate >= 0.99

    def test_within_three_se_of_exact_2x2(self):
        t = ContingencyTable(((1, 9), (11, 3)))
        exact = float(fisher_exact_2x2(t))
        res = monte_carlo_rxc(t, 100_000, seed=42)
        se = math.sqrt(exact * (1 - exact) / res.iters)
        assert abs(res.p_estimate - exact) <= 3 * se

    def test_rxc_supported(self):
        t = ContingencyTable(((4, 1, 2), (2, 5, 1), (1, 2, 6)))
        res = monte_carlo_rxc(t, 5000, seed=3)
        assert 0 <= res.p_estimate <= 1
        assert res.halfwidth_99 > 0

    def test_iteration_floor(self):
        with pytest.raises(ValueError):
            monte_carlo_rxc(ContingencyTable(((1, 9), (11, 3))), 999, seed=0)


HOLM_FIXTURES = [
    (([0.01, 0.04, 0.03], 0.05), [True, False, False]),
    (([0.01, 0.02, 0.03], 0.05), [True, True, True]),
    (([0.5], 0.05), [False]),
    (([0.04], 0.05), [True]),
    (([0.06, 0.04], 0.05), [False, False]),  # smallest fails at alpha/2
    (([0.02, 0.04], 0.05), [True, True]),
    (([0.2, 0.1, 0.3, 0.4], 0.05), [False, False, False, False]),
    (([0.001, 0.001, 0.9], 0.05), [True, True, False]),
    (([0.0, 1.0], 0.05), [True, False]),
    (([0.012, 0.025, 0.049, 0.05], 0.05), [True, False, False, False]),
]


class TestHolm:
    @pytest.mark.parametrize("args,expected", HOLM_FIXTURES)
    def test_fixtures(self, args, expected):
        pvals, alpha = args
        assert holm_bonferroni(pvals, alpha) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            holm_bonferroni([0.5, 1.5], 0.05)
        with pytest.raises(ValueError):
            holm_bonferroni([0.5], 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=8),
        st.floats(0.01, 0.99),
    )
    def test_rejections_are_a_prefix_of_sorted_order(self, pvals, alpha):
        reject = holm_bonferroni(pvals, alpha)
        # every rejected p-value must be <= every retained one
        rejected = [p for p, r in zip(pvals, reject) if r]
        kept = [p for p, r in zip(pvals, reject) if not r]
        if rejected and kept:
            assert max(rejected) <= min(kept)
        # rejections never exceed plain Bonferroni's guarantee ceiling
        for p, r in zip(pvals, reject):
            if r:
                assert p <= alpha
