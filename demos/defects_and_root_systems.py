#!/usr/bin/env python3
"""Root systems, isotropic roots, and the defect.

The defect of a Lie superalgebra with an invariant form is the maximal
number of mutually orthogonal, linearly independent isotropic odd roots.
It is found here by one greedy pass over the isotropic roots that stops
at the Witt index of the invariant form, an upper bound for the defect,
so reaching it certifies the answer as maximal.
"""

from fractions import Fraction

from supervol.exactnum import form
from supervol.rootsys import (build_root_system, defect, defect_subgroup_roots,
                              isotropic_roots, witt_index)


def pretty(coords):
    return "(" + ", ".join(str(c) for c in coords) + ")"


def main():
    print("== gl(m|n): defect is min(m, n) ==")
    for m in range(5):
        row = " ".join(str(defect(build_root_system("gl", m, n))) for n in range(5))
        print(f"m={m}: {row}")

    print("\n== isotropic roots of osp(3|2) ==")
    system = build_root_system("osp", 3, 2)
    for root in isotropic_roots(system):
        print(f"  {pretty(root.coords)}")
    print("(the odd non-isotropic roots +-delta are excluded)")

    print("\n== a canonical maximal orthogonal isotropic set for gl(3|3) ==")
    for plus, _minus in defect_subgroup_roots(build_root_system("gl", 3, 3)):
        print(f"  +-{pretty(plus.coords)}")

    print("\n== the defect-one families ==")
    for family, params in (("osp", (3, 2)), ("osp", (2, 2)),
                           ("d21a", (Fraction(1, 2),)), ("g3", ()), ("f4", ())):
        label = family + (str(tuple(map(str, params))) if params else "")
        system = build_root_system(family, *params)
        print(f"defect {label} = {defect(system)} (Witt index {witt_index(system)})")

    print("\n== the one-parameter family keeps all 8 odd roots isotropic ==")
    for alpha in (Fraction(1), Fraction(2, 7), Fraction(-5)):
        system = build_root_system("d21a", alpha)
        odd = [r for r in system.roots if r.parity == "odd"]
        norms = {form(system.gram, r.coords, r.coords) for r in odd}
        print(f"alpha = {alpha}: odd root norms = {norms}")


if __name__ == "__main__":
    main()
