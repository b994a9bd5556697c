#!/usr/bin/env python3
"""Tour of exact supergrassmannian volumes.

The volume of Gr(r|s, m|n) with respect to the invariant volume form is
an exact symbolic quantity: a signed binomial times a power of the
formal symbol 2pi times an opaque classical volume atom V(a, b).  It
vanishes exactly when the superdimension is negative.
"""

from supervol.grassvol import (GrassSpec, VolumeExpr, check_flag_identity, dims,
                               duality_sign, sdim, volume, volume_via_fibration)


def main():
    print("== dimensions ==")
    for spec in (GrassSpec(1, 1, 2, 2), GrassSpec(2, 0, 3, 1), GrassSpec(2, 1, 4, 2)):
        d = dims(spec)
        print(f"Gr({spec.r}|{spec.s}, {spec.m}|{spec.n}): "
              f"dim = ({d.even}|{d.odd}), sdim = {sdim(spec)}")

    print("\n== volumes, including the vanishing locus ==")
    for spec in (GrassSpec(1, 1, 2, 2), GrassSpec(2, 1, 4, 2),
                 GrassSpec(2, 0, 3, 4), GrassSpec(3, 0, 5, 2)):
        print(f"V({spec.r}|{spec.s}, {spec.m}|{spec.n}) = {volume(spec).render()}")

    print("\n== equal-rank family: binomial times a 2pi power ==")
    for r in range(4):
        spec = GrassSpec(r, r, 3, 3)
        print(f"V({r}|{r}, 3|3) = {volume(spec).render()}")

    print("\n== two independent routes to the same value ==")
    spec = GrassSpec(3, 1, 5, 2)
    direct = volume(spec)
    fibered = volume_via_fibration(spec)
    print(f"closed formula:     {direct.render()}")
    print(f"five-factor route:  {fibered.render()}")
    print(f"equal: {direct == fibered}")

    print("\n== complement duality carries an explicit sign ==")
    spec = GrassSpec(2, 0, 3, 1)
    comp = spec.complement()
    holds = volume(spec) == VolumeExpr.make(duality_sign(spec)) * volume(comp)
    print(f"V({spec.r}|{spec.s},{spec.m}|{spec.n}) vs "
          f"V({comp.r}|{comp.s},{comp.m}|{comp.n}): "
          f"sign = {duality_sign(spec)}, identity holds: {holds}")

    print("\n== flag-fibration identity on a sweep ==")
    checks = [(a, b, c) for a in range(5) for b in range(a, 5) for c in range(b, 5)]
    print(f"checked {len(checks)} triples a <= b <= c <= 4: "
          f"{all(check_flag_identity(a, b, c) for a, b, c in checks)}")


if __name__ == "__main__":
    main()
