#!/usr/bin/env python3
"""Certified splitting-subgroup chains.

A Levi subgroup splits in GL(m|n) iff the associated supergrassmannian
has nonnegative superdimension, and in Q(n) iff r(n-r) is even.  Chains
of certified inclusions carry recomputable evidence down to the splitting
subgroup: Q(2)^d (times Q(1) for odd n) in Q(n), minimal up to conjugacy, and
SL(1|1)^min(m,n) in GL(m|n), whose minimality is conjectural.
"""

from supervol.splitting import GL, Q, is_splitting_levi_gl, is_splitting_levi_q, minimal_chain


def show_chain(chain):
    print("  " + " < ".join(g.label() for g in chain.groups()))
    for step in chain.steps:
        print(f"    {step.sub.label()} < {step.sup.label()}"
              f"  [{step.rule}: {step.evidence}]")
    print(f"  validates: {chain.validate()}")


def main():
    print("== Levi predicates ==")
    for (r, s, m, n) in ((1, 1, 3, 2), (2, 0, 3, 4), (2, 2, 4, 2)):
        check = is_splitting_levi_gl(r, s, m, n)
        print(f"GL({r}|{s}) x GL({m-r}|{n-s}) < GL({m}|{n}): "
              f"splitting = {check.ok} (sdim = {check.evidence})")
    for (r, n) in ((1, 2), (1, 3), (2, 6)):
        check = is_splitting_levi_q(r, n)
        print(f"Q({r}) x Q({n-r}) < Q({n}): splitting = {check.ok} "
              f"(r(n-r) = {check.evidence})")

    print("\n== minimal chain for GL(3|2) ==")
    show_chain(minimal_chain(GL(3, 2)))

    print("\n== minimal chain for Q(7) ==")
    show_chain(minimal_chain(Q(7)))

    print("\n== degenerate cases ==")
    print(f"Q(2) chain groups: {[g.label() for g in minimal_chain(Q(2)).groups()]}")
    print(f"GL(3|0) chain groups: "
          f"{[g.label() for g in minimal_chain(GL(3, 0)).groups()]}")


if __name__ == "__main__":
    main()
