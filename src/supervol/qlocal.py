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

Both sums share one kernel.  Every factor has degree zero in a, so the
parameters are first scaled to integers by the lcm of their denominators;
each fixed point then contributes one integer numerator over one integer
denominator.  Both sums enumerate all binom(n, r) subsets and are bounded
at n <= 14.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .exactnum import as_fraction

Params = tuple[Fraction, ...]


def validate_params(a: Sequence) -> Params:
    """Check a_i != 0 and a_i +- a_j != 0 for i != j; return as Fractions."""
    vals = tuple(as_fraction(x) for x in a)
    if any(x == 0 for x in vals):
        raise ValueError("degenerate parameters")
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] == vals[j] or vals[i] == -vals[j]:
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


def _fixed_point_terms(
    subsets: Iterable[Iterable[int]], a: Params, odd_weight: Callable[[int, int], int]
) -> Iterable[tuple[int, int]]:
    """Yield (prod odd_weight(a_i, a_j), prod (a_i - a_j)) over i in S,
    j not in S, for each subset S, on a scaled to integers."""
    scale = math.lcm(*(x.denominator for x in a))
    b = [int(x * scale) for x in a]
    for subset in subsets:
        inside = set(subset)
        outside = [b[j] for j in range(len(b)) if j not in inside]
        num = den = 1
        for i in inside:
            for y in outside:
                num *= odd_weight(b[i], y)
                den *= b[i] - y
        yield num, den


def _subset_sum(r: int, n: int, a: Params, odd_weight: Callable[[int, int], int]) -> Fraction:
    """Sum of the fixed-point terms over all r-subsets of {0..n-1}."""
    if not 0 <= r <= n:
        raise ValueError("require 0 <= r <= n")
    if n > 14:
        raise ValueError("subset sums bounded at n <= 14")
    if len(a) != n:
        raise ValueError("parameter vector has wrong length")
    terms = _fixed_point_terms(itertools.combinations(range(n), r), a, odd_weight)
    return sum((Fraction(num, den) for num, den in terms), Fraction(0))


def alpha_subset(subset: Iterable[int], a: Sequence) -> Fraction:
    """Fixed-point contribution of the subset (0-based positions into a)."""
    vals = validate_params(a)
    s = set(subset)
    if not s <= set(range(len(vals))):
        raise ValueError("subset out of range")
    [(num, den)] = _fixed_point_terms([s], vals, operator.add)
    return Fraction(num, den)


class LocalizationReport(NamedTuple):
    """Subset-sum values across parameter samples and their consensus."""

    n: int
    r: int
    samples: tuple[tuple[Params, Fraction], ...]
    consensus: Fraction
    agrees: bool


def c_bruteforce(r: int, n: int, samples: Sequence[Sequence]) -> LocalizationReport:
    """Exact subset sum over all r-subsets, per parameter sample.

    The sum must not depend on the parameters; disagreement across
    samples raises (it never fires -- that independence is the primary
    property under test).  At least one sample is required, and n <= 14.
    """
    results = [(a, _subset_sum(r, n, a, operator.add))
               for a in map(validate_params, samples)]
    if not results:
        raise ValueError("at least one parameter sample is required")
    consensus = results[0][1]
    agrees = all(total == consensus for _, total in results)
    if not agrees:
        raise ValueError("parameter dependence detected")
    return LocalizationReport(n, r, tuple(results), consensus, agrees)


def c_closed(r: int, n: int) -> int:
    """Closed form of the subset sum: binom(n//2, r//2), or 0 when n is
    even and r odd."""
    if not 0 <= r <= n:
        raise ValueError("require 0 <= r <= n")
    if n % 2 == 0 and r % 2 == 1:
        return 0
    return math.comb(n // 2, r // 2)


def check_recursions(value: Callable[[int, int], int | Fraction], nmax: int) -> bool:
    """Both recursions on the values ``value(r, n)``, for all
    1 <= r <= n <= nmax:

    C(r,n) = C(r,n-1) + (-1)^(n-r) C(r-1,n-1)  and
    C(r,n) = (-1)^(r(n-r)) C(n-r,n).

    Pass ``c_closed`` for the closed form, or
    ``lambda r, n: table[(r, n)]`` for a precomputed table.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    for n in range(1, nmax + 1):
        for r in range(1, n + 1):
            step = value(r, n - 1) if r <= n - 1 else 0
            down = value(r - 1, n - 1)
            if value(r, n) != step + (-1) ** ((n - r) % 2) * down:
                return False
            if value(r, n) != (-1) ** ((r * (n - r)) % 2) * value(n - r, n):
                return False
    return True


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
    return _subset_sum(r, n, validate_params(a), operator.sub)
