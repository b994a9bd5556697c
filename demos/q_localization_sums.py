#!/usr/bin/env python3
"""Fixed-point localization sums for Q-type and equal-rank grassmannians.

An invariant integral over these spaces reduces to a finite sum over
fixed points.  For the Q-grassmannian the per-point contribution is a
rational function of generic parameters a_1..a_n, yet the total sum
C(r, n) is an integer independent of them; this script watches that
happen and checks the closed form against the Gaussian binomial at t = -1,
the value of the t-deformed sum.
"""

from fractions import Fraction

from supervol.qlocal import (alpha_subset, c_bruteforce, c_closed, gaussian_binomials,
                             gl_localization, localization_sum, seeded_param_vectors)


def main():
    print("== individual fixed-point contributions (n = 4, S of size 2) ==")
    a = (Fraction(1), Fraction(2), Fraction(5), Fraction(-3))
    subsets = [(0, 1), (0, 2), (1, 3)]
    for s in subsets:
        print(f"alpha({set(i + 1 for i in s)}) = {alpha_subset(s, a)}")

    print("\n== the sum is parameter independent ==")
    for seed in (1, 2, 3):
        vectors = seeded_param_vectors(4, 1, seed)
        report = c_bruteforce(2, 4, vectors)
        print(f"a = {tuple(map(str, vectors[0]))}: sum = {report.consensus}")

    print("\n== closed-form table C(r, n) ==")
    for n in range(9):
        row = " ".join(str(c_closed(r, n)) for r in range(n + 1))
        print(f"n={n}: {row}")
    print("zeros exactly where r(n-r) is odd")

    print("\n== C(r, n) is the Gaussian binomial at t = -1 ==")
    holds = all(gaussian_binomials(n, -1) == [c_closed(r, n) for r in range(n + 1)]
                for n in range(21))
    print(f"closed form equals [n choose r]_(-1) to n = 20: {holds}")
    print("so it obeys q-Pascal and the symmetry [n choose r]_t = [n choose n-r]_t")
    deformed = localization_sum(2, 4, a, 2)
    print(f"deformed sum at t = 2: localization_sum(2, 4, a, 2) = {deformed}"
          f" = [4 choose 2]_2 = {gaussian_binomials(4, 2)[2]}")

    print("\n== equal-rank localization just counts fixed points ==")
    for (r, n) in ((1, 2), (2, 4), (3, 6)):
        vec = seeded_param_vectors(n, 1, 7)[0]
        print(f"(r, n) = ({r}, {n}): sum = {gl_localization(r, n, vec)} "
              f"(every contribution is 1)")


if __name__ == "__main__":
    main()
