#!/usr/bin/env python3
"""Casimir positivity for the built-in restricted pairs.

For each symmetric pair the quadratic Casimir acts on a highest-weight
eigenfunction of weight w by (w + 2 rho, w).  With a positive definite
form and nonnegative rho coefficients this is positive for every nonzero
dominant weight; the script samples the dominant cone and also exercises
the principal-block weight test of the one-parameter family.
"""

import itertools
from fractions import Fraction

from supervol.sympair import (builtin_pairs, casimir_eigenvalue, d21a_in_a_star,
                              d21a_weight, fundamental_weights)


def main():
    pairs = builtin_pairs(1, 3)
    print("== rho in the simple-root basis ==")
    for pair in pairs:
        nonneg = all(c >= 0 for c in pair.rho)
        print(f"{pair.name}: rho = {tuple(map(str, pair.rho))}, all >= 0: {nonneg}")

    print("\n== Casimir eigenvalues on a few dominant weights ==")
    for pair in pairs:
        fund = fundamental_weights(pair)
        for coeffs in itertools.islice(
                itertools.product((Fraction(1), Fraction(1, 2)), repeat=pair.rank), 3):
            weight = tuple(sum(t * w[i] for t, w in zip(coeffs, fund))
                           for i in range(pair.rank))
            value = casimir_eigenvalue(pair, weight)
            print(f"{pair.name}: fundamental coords {tuple(map(str, coeffs))} "
                  f"-> eigenvalue {value} (> 0: {value > 0})")

    print("\n== principal-block weights of the one-parameter family ==")
    for l in range(5):
        w = d21a_weight(l)
        print(f"l = {l}: weight {tuple(map(str, w))}, "
              f"restricts to the rank-two subspace: {d21a_in_a_star(l)}")
    print("only l = 0, 1 restrict; every l >= 2 escapes, which is what")
    print("forces the principal-block summand of the function space to split")


if __name__ == "__main__":
    main()
