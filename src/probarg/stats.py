"""Small-sample inferential statistics: exact Fisher 2x2, a seeded Monte
Carlo test for r x c tables, and the Holm-Bonferroni step-down correction.

The Monte Carlo sampler uses a self-contained splitmix64 generator (see
docs/schema.md) so results are bit-reproducible across platforms, and draws
margin-fixed tables by sequential hypergeometric fill with exact integer
inverse-CDF steps.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._value import Value

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


class ContingencyTable(Value):
    __slots__ = ("counts",)

    def __init__(self, counts: tuple):
        """counts: row tuples of nonnegative ints."""
        rows = tuple(tuple(int(x) for x in row) for row in counts)
        if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("table must be rectangular with at least 2 rows")
        if len(rows[0]) < 2:
            raise ValueError("table must have at least 2 columns")
        if any(x < 0 for r in rows for x in r):
            raise ValueError("counts must be nonnegative")
        if all(x == 0 for r in rows for x in r):
            raise ValueError("table must have at least one positive count")
        Value.__init__(self, rows)

    @property
    def row_sums(self):
        return tuple(sum(r) for r in self.counts)

    @property
    def col_sums(self):
        return tuple(sum(col) for col in zip(*self.counts))

    @property
    def total(self):
        return sum(self.row_sums)


def fisher_exact_2x2(t: ContingencyTable) -> Fraction:
    """Two-sided Fisher exact p-value, probability-mass rule, exact rational.

    Sums the hypergeometric probabilities of every margin-fixed table that is
    no more probable than the observed one.
    """
    if len(t.counts) != 2 or len(t.counts[0]) != 2:
        raise ValueError("fisher_exact_2x2 requires a 2x2 table")
    (a, _), _ = t.counts
    r1, r2 = t.row_sums
    c1, _ = t.col_sums
    n = t.total
    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    # integer weights over the common denominator C(n, c1)
    weights = {k: math.comb(r1, k) * math.comb(r2, c1 - k) for k in range(lo, hi + 1)}
    observed = weights[a]
    numer = sum(w for w in weights.values() if w <= observed)
    return Fraction(numer, math.comb(n, c1))


class SplitMix64:
    """Seeded 64-bit mixing generator; fully specified in docs/schema.md."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection; unbiased. One draw is k
        outputs, the first most significant: k = 1 for n <= 2^64, else
        ceil(n.bit_length() / 64)."""
        if n <= 0:
            raise ValueError("n must be positive")
        k = 1 if n <= 1 << 64 else -(-n.bit_length() // 64)
        span = 1 << (64 * k)
        limit = span - span % n
        while True:
            u = 0
            for _ in range(k):
                u = (u << 64) | self.next_u64()
            if u < limit:
                return u % n


def _hypergeom_draw(n, c, r, rng: SplitMix64) -> int:
    """Exact inverse-CDF draw from Hypergeometric(n, c, r)."""
    lo = max(0, r - (n - c))
    hi = min(c, r)
    u = rng.randbelow(math.comb(n, r))
    k = lo
    w = math.comb(c, lo) * math.comb(n - c, r - lo)
    cum = w
    while u >= cum and k < hi:
        w = w * (c - k) * (r - k) // ((k + 1) * (n - c - r + k + 1))
        k += 1
        cum += w
    return k

def _sample_margin_fixed(row_sums, col_sums, rng: SplitMix64):
    """Draw one table with the given margins (sequential hypergeometric fill)."""
    table = []
    rem_cols = list(col_sums)
    rem_total = sum(rem_cols)
    for r in row_sums[:-1]:
        row = []
        rem_r = r
        avail = rem_total
        for j in range(len(rem_cols) - 1):
            x = _hypergeom_draw(avail, rem_cols[j], rem_r, rng)
            row.append(x)
            rem_r -= x
            avail -= rem_cols[j]
        row.append(rem_r)
        table.append(row)
        for j, x in enumerate(row):
            rem_cols[j] -= x
        rem_total -= r
    table.append(rem_cols)
    return table


class MonteCarloResult(Value):
    __slots__ = ("p_estimate", "halfwidth_99", "iters", "seed")


def monte_carlo_rxc(t: ContingencyTable, iters: int, seed: int) -> MonteCarloResult:
    """Monte Carlo estimate of the exact-test p-value for an r x c table.

    Samples margin-fixed tables and counts those no more probable than the
    observed one under the margin-fixed distribution. With fixed margins the
    table probability is proportional to 1 / prod(cell!), so the comparison
    reduces to exact integer products of factorials. A factorial is
    computed the first time its cell value occurs, and kept for the call.
    """
    if iters < 1000:
        raise ValueError("iters must be at least 1000")
    rng = SplitMix64(seed)
    row_sums = t.row_sums
    col_sums = t.col_sums
    fact = {}

    def cell_factorials(table):
        prod = 1
        for row in table:
            for x in row:
                if x not in fact:
                    fact[x] = math.factorial(x)
                prod *= fact[x]
        return prod

    obs_prod = cell_factorials(t.counts)
    hits = 0
    for _ in range(iters):
        sample = _sample_margin_fixed(row_sums, col_sums, rng)
        if cell_factorials(sample) >= obs_prod:  # P(sample) <= P(observed)
            hits += 1
    est = hits / iters
    half = Z_99 * math.sqrt(est * (1.0 - est) / iters)
    return MonteCarloResult(est, half, iters, seed)


def holm_bonferroni(pvals, alpha) -> list:
    """Step-down Holm-Bonferroni decisions, mapped back to input order."""
    pvals = list(pvals)
    if any(not (0 <= p <= 1) for p in pvals):
        raise ValueError("p-values must be in [0, 1]")
    if not (0 < alpha < 1):
        raise ValueError("alpha must be in (0, 1)")
    m = len(pvals)
    order = sorted(range(m), key=lambda i: pvals[i])
    reject = [False] * m
    for rank, i in enumerate(order):  # rank is 0-based
        if pvals[i] <= alpha / (m - rank):
            reject[i] = True
        else:
            break
    return reject
