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
integer numerator over one common denominator q^(r(n-r)) D, with
D = prod_{i<j} (b_i - b_j).  Times D, the term of a fixed point S is a
product over the pairs i < j of one pair factor chosen by the sides of i
and j, so no term needs a division.  The kernel cuts the positions into
two halves, tabulates the low half's products once, and walks the high
half depth first with one running product per low row, so a product
shared by many terms is formed once; the term of every one of the
binom(n, r) fixed points is still formed and added exactly, and the sums
are bounded at n <= 14.  Parameters are validated and scaled to
integers once per vector, at the public boundary: ``localization_sum``
sums one r, and ``localization_sums`` every r in one pass.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .exactvalue import as_fraction, integer_scaled

Params = tuple[Fraction, ...]
MAX_N = 14  # largest n of a subset sum


def validate_params(a: Sequence) -> Params:
    """Check a_i != 0 and a_i +- a_j != 0 for i != j; return as Fractions."""
    vals = tuple([as_fraction(x) for x in a])
    # (|numerator|, denominator) pairs: hashing a Fraction costs a modular inverse
    if 0 in vals or len({(abs(x.numerator), x.denominator) for x in vals}) < len(vals):
        raise ValueError("degenerate parameters")
    return vals


def random_params(n: int, rng: random.Random) -> Params:
    """n nonzero integers with distinct magnitudes, so no two are equal or
    sum to zero: the magnitudes are a uniform sample without replacement
    from 1..40+4n, and each carries a uniform sign."""
    return tuple([Fraction(rng.choice((x, -x)))
                  for x in rng.sample(range(1, 41 + 4 * n), max(n, 0))])


def seeded_param_vectors(n: int, count: int, seed: int) -> list[Params]:
    rng = random.Random(seed)
    return [random_params(n, rng) for _ in range(count)]


def _scaled(a: Params) -> tuple[list[int], int]:
    """a scaled to integers b by the lcm of its denominators, and the common
    denominator D = prod_{i<x} (b_i - b_x)."""
    [b], _ = integer_scaled([a])
    return b, math.prod(x - y for x, y in itertools.combinations(b, 2))


def _pair_factor(bi: int, bx: int, i_in: int, x_in: int, p: int, q: int) -> int:
    """Factor of the pair i < x in the term of the fixed point S over D, at
    t = p/q, by the sides of i and x (1 for in S): b_i - b_x when both are in
    S or both out, q b_i - p b_x when only i is in S and p b_i - q b_x when
    only x is.  A term prod (q b_i - p b_j) / prod (b_i - b_j), i in S, j not
    in S, times D is the product of these factors, because each mixed pair's
    difference cancels against D to +1 or -1."""
    if i_in == x_in:
        return bi - bx
    return q * bi - p * bx if i_in else p * bi - q * bx


def _half(f: list, stop: int, lo: int, hi: int) -> list:
    """(count, own, cross) for each side vector of the positions 0..stop-1,
    side 1 meaning in S, whose count in S is at most hi and, with every
    position of the half still to come put in S, at least lo: own is the
    product of the pair factors inside, and cross[2 (x - stop) + s] that of
    the factors with a later position x on side s."""
    # lists: a tuple built from an iterator is resized to its length, which
    # leaves CPython's per-size tuple free lists holding memory across calls
    states = [(0, 1, [1] * 2 * len(f))]
    for i in range(stop):
        least = lo - (stop - 1 - i)
        states = [(count + s, own * cross[s], list(map(operator.mul, cross[2:], f[i][s])))
                  for count, own, cross in states for s in (0, 1)
                  if least <= count + s <= hi]
    return states


def _fixed_point_sums(ks: Sequence[int], a: Params, t: Fraction) -> list[Fraction]:
    """For each k in ks, the sum of prod (a_i - t a_j) / (a_i - a_j), i in S,
    j not in S, over every k-subset S, with every term added exactly.  On a
    scaled to integers b and t = p/q, the term of S is the product of its
    pair factors over the one denominator q^(k(n-k)) D.  The positions split
    into a low half L = {0..h-1}, h = n // 2, and a high half H, and the
    term factors as own(S & L) own(S & H) prod_{x in H} cross_x(x in S, S & L).
    The side vectors of L are sorted by their count in S, so the rows of any
    range of counts are one contiguous slice.  A depth-first walk assigns
    the positions of H one at a time; each node keeps the running product
    own(S & L) prod cross_x over the positions x set so far for every row
    whose count can still complete a count in [min(ks), max(ks)], and a
    child multiplies that slice by the rows' cross factors of its position
    and side in one pass in C.  At the last position, where S is complete
    with c high points, the rows of count low, low + c in ks, add own(S & H)
    times the dot product of their slice with that factor column into the
    total of k = low + c.  Each shared prefix of the high products is
    formed once, and the factor tables once for all of ks."""
    p, q = t.numerator, t.denominator
    b, common = _scaled(a)
    n = len(b)
    if n == 0:
        return [Fraction(1) for _ in ks]  # the empty product of the one fixed point
    h = n // 2
    lo, hi = min(ks), max(ks)
    wanted = set(ks)
    # f[i][s]: the factors of i on side s with each later x on side 0, then 1
    f = [[[_pair_factor(b[i], b[x], s, x_in, p, q) for x in range(i + 1, n) for x_in in (0, 1)]
          for s in (0, 1)] for i in range(n)]
    rows = sorted(_half(f, h, lo - (n - h), hi), key=operator.itemgetter(0))
    # rows of count low are rows[starts[low]:starts[low + 1]]
    counts = [count for count, _, _ in rows]
    starts = [bisect.bisect_left(counts, low) for low in range(h + 2)]
    # cols[2 (x - h) + s]: the cross factor of the high position x on side s, by row
    cols = [list(col) for col in zip(*[cross for _, _, cross in rows])]
    # targets[c]: the low counts that complete a k in ks with c high ones
    targets = [[low for low in range(h + 1) if low + c in wanted and starts[low] < starts[low + 1]]
               for c in range(n - h + 1)]
    totals = [0] * (n + 1)
    # depth first, one node per entry: the next high position x, the count so
    # far, the high half's own product and its factors with x and every later
    # position (side 0, then 1), and the running products of rows first..
    stack = [(h, 0, 1, [1] * 2 * (n - h), 0, [own for _, own, _ in rows])]
    while stack:
        x, count, own, cross, first, prods = stack.pop()
        for s in (0, 1):
            c = count + s
            col = cols[2 * (x - h) + s]
            if x == n - 1:
                # S is complete: the rows of count low, low + c in ks, add their terms
                for low in targets[c]:
                    u, v = starts[low] - first, starts[low + 1] - first
                    totals[low + c] += own * cross[s] * sum(map(operator.mul, prods[u:v],
                                                                col[u + first:v + first]))
                continue
            # low counts that complete [lo, hi] with c to c + n - 1 - x high points
            i = starts[max(lo - c - (n - 1 - x), 0)]
            j = starts[max(min(hi - c, h) + 1, 0)]
            if i < j:
                stack.append((x + 1, c, own * cross[s], list(map(operator.mul, cross[2:], f[x][s])),
                              i, list(map(operator.mul, prods[i - first:j - first], col[i:j]))))
    return [Fraction(totals[k], common * q ** (k * (n - k))) for k in ks]


def _check_shape(n: int, vals: Params) -> None:
    if n > MAX_N:
        raise ValueError(f"subset sums bounded at n <= {MAX_N}")
    if len(vals) != n:
        raise ValueError("parameter vector has wrong length")


def localization_sum(r: int, n: int, a: Sequence, t: Fraction | int) -> Fraction:
    """Sum over the r-subsets S of {0..n-1} of prod (a_i - t a_j) / (a_i - a_j),
    i in S, j not in S: [n choose r]_t for every admissible a.  t is an int
    or a Fraction (t = -1 gives C(r, n), t = 1 binom(n, r)); n <= 14.  The
    half tables keep only the side vectors that can reach r."""
    vals = validate_params(a)
    if not 0 <= r <= n:
        raise ValueError("require 0 <= r <= n")
    _check_shape(n, vals)
    return _fixed_point_sums((r,), vals, as_fraction(t))[0]


def localization_sums(n: int, a: Sequence, t: Fraction | int) -> list[Fraction]:
    """``localization_sum(r, n, a, t)`` for every r = 0..n, from one pass
    over the half tables of the vector a; n <= 14."""
    vals = validate_params(a)
    _check_shape(n, vals)
    return _fixed_point_sums(range(n + 1), vals, as_fraction(t))


def gaussian_binomials(n: int, t: Fraction | int) -> list[Fraction]:
    """[n choose r]_t for every r = 0..n, from one q-Pascal pass on integers:
    with t = p/q and H(m, k) = q^(k(m-k)) [m choose k]_t,
    H(m, k) = q^(m-k) H(m-1, k-1) + p^k H(m-1, k)."""
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {n!r}")
    if n < 0:
        raise ValueError("require n >= 0")
    t = as_fraction(t)
    p, q = t.numerator, t.denominator
    p_pow = [p ** k for k in range(n + 1)]
    q_pow = [q ** k for k in range(n + 1)]
    row = [1] + [0] * n  # H(0, k)
    for m in range(1, n + 1):
        for k in range(m, 0, -1):
            row[k] = q_pow[m - k] * row[k - 1] + p_pow[k] * row[k]
    return [Fraction(h, q ** (k * (n - k))) for k, h in enumerate(row)]


def alpha_subset(subset: Iterable[int], a: Sequence) -> Fraction:
    """Fixed-point contribution of the subset (0-based positions into a): the
    product of its pair factors at t = -1 over D."""
    vals = validate_params(a)
    s = set(subset)
    if not s <= set(range(len(vals))):
        raise ValueError("subset out of range")
    b, common = _scaled(vals)
    num = math.prod(_pair_factor(b[i], b[x], i in s, x in s, -1, 1)
                    for i, x in itertools.combinations(range(len(b)), 2))
    return Fraction(num, common)


class LocalizationReport(NamedTuple):
    """Consensus of the subset-sum values across parameter samples."""

    consensus: Fraction
    agrees: bool


def _consensus(sums: list):
    """The value that every parameter sample gives.

    The sums must not depend on the parameters; disagreement across
    samples raises (it never fires -- that independence is the primary
    property under test).  At least one sample is required.
    """
    if not sums:
        raise ValueError("at least one parameter sample is required")
    if any(total != sums[0] for total in sums):
        raise ValueError("parameter dependence detected")
    return sums[0]


def c_bruteforce(r: int, n: int, samples: Sequence[Sequence]) -> LocalizationReport:
    """Exact subset sum over all r-subsets, per parameter sample, which
    must all agree; at least one sample is required, and n <= 14."""
    return LocalizationReport(_consensus([localization_sum(r, n, a, -1) for a in samples]), True)


def c_closed(r: int, n: int) -> int:
    """Closed form of the subset sum: binom(n//2, r//2), or 0 when n is
    even and r odd."""
    if not 0 <= r <= n:
        raise ValueError("require 0 <= r <= n")
    if n % 2 == 0 and r % 2 == 1:
        return 0
    return math.comb(n // 2, r // 2)


def brute_c_table(nmax: int, seed: int, count: int) -> dict[tuple[int, int], Fraction]:
    """Consensus brute-force table for all 0 <= r <= n <= nmax over ``count``
    seeded parameter samples per n: one pass per sample sums every r at
    once, and the samples must agree exactly at every (r, n)."""
    table = {}
    for n in range(nmax + 1):
        sums = _consensus([localization_sums(n, a, -1)
                           for a in seeded_param_vectors(n, count, seed + n)])
        table.update(((r, n), total) for r, total in enumerate(sums))
    return table


def gl_localization(r: int, n: int, a: Sequence) -> Fraction:
    """Localization count for the equal-rank grassmannian.

    Every fixed point is an r-subset whose contribution is
    prod (a_i - a_j) / (a_i - a_j) over i in S, j not in S; the sum is
    binom(n, r) independently of the parameters.  Bounded at n <= 14.
    """
    return localization_sum(r, n, a, 1)
