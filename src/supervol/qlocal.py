"""Finite localization sums for equal-rank and Q-type grassmannians.

An odd vector field with isolated zeros reduces the invariant integral
to a finite sum of per-fixed-point invariants.  For the Q-grassmannian
of (r|r)-planes in C^(n|n) the fixed points are the r-subsets S of
{1..n} and the contribution of S is

    alpha(S) = prod_{i in S, j not in S} (a_i + a_j) / (a_i - a_j)

for generic parameters a_1..a_n.  The subset sum C(r, n) is independent
of the parameters and integer-valued; it has the closed form binom(m, l)
for (n, r) = (2m, 2l), (2m+1, 2l+1), (2m+1, 2l) and vanishes for
(n, r) = (2m, 2l+1) -- equivalently, it is nonzero iff r(n-r) is even.

For the equal-rank grassmannian of (r|r)-planes in C^(n|n) the odd
weights a_i + a_j become a_i - a_j, so every contribution is 1 and the
sum counts the binom(n, r) fixed points.

Both are the sum of prod (a_i - t a_j) / (a_i - a_j) at t = -1 and t = 1,
which is the Gaussian binomial [n choose r]_t for every t (Macdonald,
Symmetric Functions and Hall Polynomials, ch. III).  With a scaled to
integers b by the lcm of its denominators and t = p/q, a sum is one
integer numerator over one common denominator q^(r(n-r)) prod_{i<j} (b_i - b_j).
The sums enumerate all binom(n, r) subsets and are bounded at n <= 14.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .exactnum import as_fraction

Params = tuple[Fraction, ...]


def validate_params(a: Sequence) -> Params:
    """Check a_i != 0 and a_i +- a_j != 0 for i != j; return as Fractions."""
    vals = tuple(as_fraction(x) for x in a)
    if 0 in vals or len({abs(x) for x in vals}) < len(vals):
        raise ValueError("degenerate parameters")
    return vals


def random_params(n: int, rng: random.Random) -> Params:
    """Distinct small nonzero integers with no pair summing to zero."""
    chosen: list[int] = []
    taken: set[int] = set()
    while len(chosen) < n:
        x = rng.randint(1, 40 + 4 * n) * rng.choice((1, -1))
        if x in taken or -x in taken:
            continue
        taken.add(x)
        chosen.append(x)
    return tuple(Fraction(x) for x in chosen)


def seeded_param_vectors(n: int, count: int, seed: int) -> list[Params]:
    rng = random.Random(seed)
    return [random_params(n, rng) for _ in range(count)]


def _fixed_point_sum(
    subsets: Iterable[Iterable[int]], k: int, a: Params, t: Fraction | int
) -> Fraction:
    """Sum of prod (a_i - t a_j) / (a_i - a_j), i in S, j not in S, over the
    given k-subsets S.  On a scaled to integers b and t = p/q, S contributes
    prod (q b_i - p b_j) / (q^(k(n-k)) prod (b_i - b_j)), and its product of
    differences divides D = prod_{i<j} (b_i - b_j) exactly, so the numerators
    accumulate over the one denominator q^(k(n-k)) D."""
    p, q = t.numerator, t.denominator
    scale = math.lcm(*(x.denominator for x in a))
    b = [int(x * scale) for x in a]
    n = len(b)
    common = math.prod(x - y for x, y in itertools.combinations(b, 2))
    total = 0
    for subset in subsets:
        inside = set(subset)
        outside = [b[j] for j in range(n) if j not in inside]
        num = den = 1
        for i in inside:
            qb = q * b[i]
            for y in outside:
                num *= qb - p * y
                den *= b[i] - y
        total += num * (common // den)
    return Fraction(total, common * q ** (k * (n - k)))


def localization_sum(r: int, n: int, a: Sequence, t: Fraction | int) -> Fraction:
    """Sum over the r-subsets S of {0..n-1} of prod (a_i - t a_j) / (a_i - a_j),
    i in S, j not in S: [n choose r]_t for every admissible a.  t is an int
    or a Fraction (t = -1 gives C(r, n), t = 1 binom(n, r)); n <= 14."""
    vals = validate_params(a)
    if not 0 <= r <= n:
        raise ValueError("require 0 <= r <= n")
    if n > 14:
        raise ValueError("subset sums bounded at n <= 14")
    if len(vals) != n:
        raise ValueError("parameter vector has wrong length")
    return _fixed_point_sum(itertools.combinations(range(n), r), r, vals, as_fraction(t))


def gaussian_binomial(n: int, r: int, t: Fraction | int) -> Fraction:
    """[n choose r]_t by q-Pascal on integers: with t = p/q and
    H(m, k) = q^(k(m-k)) [m choose k]_t, H(m, k) = q^(m-k) H(m-1, k-1) + p^k H(m-1, k)."""
    if not 0 <= r <= n:
        raise ValueError("require 0 <= r <= n")
    t = as_fraction(t)
    p, q = t.numerator, t.denominator
    row = [1] + [0] * r  # H(0, k)
    for m in range(1, n + 1):
        for k in range(min(m, r), 0, -1):
            row[k] = q ** (m - k) * row[k - 1] + p ** k * row[k]
    return Fraction(row[r], q ** (r * (n - r)))


def alpha_subset(subset: Iterable[int], a: Sequence) -> Fraction:
    """Fixed-point contribution of the subset (0-based positions into a)."""
    vals = validate_params(a)
    s = set(subset)
    if not s <= set(range(len(vals))):
        raise ValueError("subset out of range")
    return _fixed_point_sum([s], len(s), vals, -1)


class LocalizationReport(NamedTuple):
    """Consensus of the subset-sum values across parameter samples."""

    consensus: Fraction
    agrees: bool


def c_bruteforce(r: int, n: int, samples: Sequence[Sequence]) -> LocalizationReport:
    """Exact subset sum over all r-subsets, per parameter sample.

    The sum must not depend on the parameters; disagreement across
    samples raises (it never fires -- that independence is the primary
    property under test).  At least one sample is required, and n <= 14.
    """
    totals = [localization_sum(r, n, a, -1) for a in samples]
    if not totals:
        raise ValueError("at least one parameter sample is required")
    consensus = totals[0]
    agrees = all(total == consensus for total in totals)
    if not agrees:
        raise ValueError("parameter dependence detected")
    return LocalizationReport(consensus, agrees)


def c_closed(r: int, n: int) -> int:
    """Closed form of the subset sum: binom(n//2, r//2), or 0 when n is
    even and r odd."""
    if not 0 <= r <= n:
        raise ValueError("require 0 <= r <= n")
    if n % 2 == 0 and r % 2 == 1:
        return 0
    return math.comb(n // 2, r // 2)


def brute_c_table(nmax: int, seed: int, count: int = 3) -> dict[tuple[int, int], Fraction]:
    """Consensus brute-force table for all 0 <= r <= n <= nmax."""
    table = {}
    for n in range(nmax + 1):
        samples = seeded_param_vectors(n, count, seed + n)
        for r in range(n + 1):
            table[(r, n)] = c_bruteforce(r, n, samples).consensus
    return table


def gl_localization(r: int, n: int, a: Sequence) -> Fraction:
    """Localization count for the equal-rank grassmannian.

    Every fixed point is an r-subset whose contribution is
    prod (a_i - a_j) / (a_i - a_j) over i in S, j not in S; the sum is
    binom(n, r) independently of the parameters.  Bounded at n <= 14.
    """
    return localization_sum(r, n, a, 1)
