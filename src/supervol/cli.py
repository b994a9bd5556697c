"""Command-line interface with exact text or JSON output.

Every command emits either a human-readable line or a JSON envelope
(``--format json``) of the shape::

    {"command": ..., "params": {...}, "result": ..., "rules": [...]}

where ``rules`` names the formulas or criteria that produced the result.
Rationals are rendered as exact strings.  Exit codes: 0 success, 1 domain
error, 2 usage error.

Each handler imports the modules it uses, and calls them as module
attributes at call time, so a verb loads only its own modules (``verify``
only for ``verify`` and ``c-table --brute``) and a rebound attribute is
seen.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

DEFAULT_SEED = 20240001
# Largest accepted ``verify`` bounds.  The grassmannian sweeps grow as
# max_n^4 (at 16 they add about 1 s to a run); the subset sums stop at
# qlocal's n <= 14.
MAX_N_GRASS = 16
MAX_N_C = 14


def _emit(args, command: str, params: dict, result, rules: list[str], text: str):
    if args.format == "json":
        envelope = {"command": command, "params": params,
                    "result": result, "rules": rules}
        print(json.dumps(envelope, sort_keys=True))
    else:
        print(text)


def _cmd_volume(args):
    from . import grassvol

    spec = grassvol.GrassSpec(args.r, args.s, args.m, args.n)
    vol = grassvol.volume(spec)
    rules = (["negative-superdimension-vanishing"] if vol.is_zero()
             else ["signed-binomial-volume-formula"])
    _emit(args, "volume",
          {"r": args.r, "s": args.s, "m": args.m, "n": args.n},
          vol.to_payload(), rules, vol.render())


def _cmd_qvolume(args):
    from . import grassvol, qlocal

    c = qlocal.c_closed(args.r, args.n)
    vol = grassvol.VolumeExpr.make(c, 2 * args.r * (args.n - args.r) if c else 0)
    rules = ["q-grassmannian-subset-sum-closed-form"]
    params = {"r": args.r, "n": args.n}
    result = {"c": str(c), "volume": vol.to_payload()}
    agrees = True
    if args.brute:
        vectors = qlocal.seeded_param_vectors(args.n, args.samples, args.seed)
        report = qlocal.c_bruteforce(args.r, args.n, vectors)
        agrees = report.consensus == c
        result["brute_force_consensus"] = str(report.consensus)
        result["brute_force_agrees_with_closed_form"] = agrees
        rules.append("localization-subset-sum-bruteforce")
    _emit(args, "qvolume", params, result, rules,
          f"C({args.r},{args.n}) = {c}; volume = {vol.render()}")
    return 0 if agrees else 1


def _cmd_sdim(args):
    from . import grassvol

    spec = grassvol.GrassSpec(args.r, args.s, args.m, args.n)
    value = grassvol.sdim(spec)
    _emit(args, "sdim", {"r": args.r, "s": args.s, "m": args.m, "n": args.n},
          value, ["superdimension-product-formula"], str(value))


def _cmd_dims(args):
    from . import grassvol

    spec = grassvol.GrassSpec(args.r, args.s, args.m, args.n)
    d = grassvol.dims(spec)
    _emit(args, "dims", {"r": args.r, "s": args.s, "m": args.m, "n": args.n},
          {"even": d.even, "odd": d.odd}, ["dimension-formula"],
          f"({d.even}|{d.odd})")


def _parse_family_params(raw: list[str]):
    out = []
    for token in raw:
        try:
            out.append(int(token))
        except ValueError:
            out.append(Fraction(token))
    return out


def _cmd_defect(args):
    from . import rootsys

    params = _parse_family_params(args.params)
    system = rootsys.build_root_system(args.family, *params)
    value = rootsys.defect(system)
    rules = (["witt-index-bound"] if value == rootsys.witt_index(system)
             else ["maximal-orthogonal-isotropic-search"])
    _emit(args, "defect", {"family": args.family, "params": [str(p) for p in params]},
          value, rules, str(value))


def _cmd_c_table(args):
    from . import qlocal

    rows = []
    lines = []
    for n in range(args.nmax + 1):
        values = [qlocal.c_closed(r, n) for r in range(n + 1)]
        rows.append({"n": n, "values": values})
        lines.append(f"n={n:2d}: " + " ".join(str(v) for v in values))
    rules = ["q-grassmannian-subset-sum-closed-form"]
    agrees = True
    if args.brute:
        from . import verify

        brute_max = min(args.nmax, 12)
        table = qlocal.brute_c_table(brute_max, args.seed, args.samples)
        agrees = verify.check_c_table(table, brute_max, args.samples).passed
        rows.append({"brute_force_agrees": agrees})
        lines.append(f"brute force agrees: {agrees}")
        rules.append("localization-subset-sum-bruteforce")
    _emit(args, "c-table", {"nmax": args.nmax}, rows, rules, "\n".join(lines))
    return 0 if agrees else 1


def _cmd_localize(args):
    from . import qlocal

    vectors = qlocal.seeded_param_vectors(args.n, args.samples, args.seed)
    sums = [qlocal.gl_localization(args.r, args.n, a) for a in vectors]
    expected = math.comb(args.n, args.r)
    agrees = all(s == expected for s in sums)
    _emit(args, "localize",
          {"r": args.r, "n": args.n, "samples": args.samples, "seed": args.seed},
          {"sum": str(sums[0]),
           "fixed_points": expected, "all_samples_agree": agrees},
          ["equal-rank-fixed-point-count"],
          f"localization sum = {sums[0]} over {expected} fixed points "
          f"({args.samples} parameter samples agree: {agrees})")
    return 0 if agrees else 1


def _cmd_splitting(args):
    from . import splitting

    if args.kind == "gl":
        check = splitting.is_splitting_levi_gl(args.r, args.s, args.m, args.n)
        params = {"r": args.r, "s": args.s, "m": args.m, "n": args.n}
        rules = ["levi-splitting-iff-sdim-nonnegative"]
        text = (f"splitting: {check.ok} (sdim = {check.evidence})")
        result = {"splitting": check.ok, "sdim": check.evidence}
    else:
        check = splitting.is_splitting_levi_q(args.r, args.n)
        params = {"r": args.r, "n": args.n}
        rules = ["levi-splitting-iff-parity-product-even"]
        text = f"splitting: {check.ok} (r(n-r) = {check.evidence})"
        result = {"splitting": check.ok, "parity_product": check.evidence}
    _emit(args, "splitting", params, result, rules, text)


def _cmd_chain(args):
    from . import splitting

    family = splitting.GL if args.family == "GL" else splitting.Q
    group = family(*args.params)
    chain = splitting.minimal_chain(group)
    if not chain.validate():
        raise ValueError("constructed chain failed validation")
    payload = chain.to_payload()
    payload["validated"] = True
    lines = [" ⊂ ".join(g.label() for g in chain.groups())]
    for step in chain.steps:
        lines.append(f"  {step.sub.label()} ⊂ {step.sup.label()}"
                     f"  [{step.rule}: {step.evidence}]")
    _emit(args, "chain", {"family": args.family,
                          "params": list(args.params)},
          payload, ["certified-inclusion-chain"], "\n".join(lines))


def _cmd_casimir(args):
    from . import exactnum, sympair

    if args.pair == "osp":
        pair = sympair.osp_pair(args.m, args.n)
    elif args.pair == "g12":
        pair = sympair.g12_pair()
    else:
        pair = sympair.f31_pair()
    weight = [exactnum.as_fraction(x) for x in args.weight.split(",")]
    value = sympair.casimir_eigenvalue(pair, weight)
    positive = sympair.positivity_check(pair, weight)
    _emit(args, "casimir",
          {"pair": pair.name, "weight": [str(w) for w in weight]},
          {"eigenvalue": str(value), "positive": positive,
           "dominant": pair.is_dominant(weight)},
          ["casimir-eigenvalue-quadratic-form"],
          f"(weight + 2 rho, weight) = {value} (positive: {positive})")


def _cmd_verify(args):
    from . import verify

    results = verify.run_all(seed=args.seed, max_n_grass=args.max_n,
                             max_n_c=args.max_n_c)
    passed = sum(1 for r in results if r.passed)
    if args.format == "json":
        for r in results:
            print(json.dumps(r.to_payload(), sort_keys=True))
        print(json.dumps({"passed": passed, "failed": len(results) - passed},
                         sort_keys=True))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.name}: {r.detail}")
        print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def _int_in_range(low: int, high: int | None = None):
    """An argparse ``type`` that rejects integers outside [low, high]
    (exit 2); ``high=None`` leaves the range unbounded above."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supervol",
        description="Exact supergrassmannian volumes, localization sums, "
                    "defects, and splitting certificates.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, helptext):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
        return p

    p = add("volume", _cmd_volume, "exact volume of Gr(r|s, m|n)")
    for arg in ("r", "s", "m", "n"):
        p.add_argument(arg, type=int)

    p = add("qvolume", _cmd_qvolume, "exact volume of the Q-grassmannian QGr(r, n)")
    p.add_argument("r", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--brute", action="store_true",
                   help="also run the brute-force subset sum")
    p.add_argument("--samples", type=_int_in_range(1), default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("sdim", _cmd_sdim, "superdimension of Gr(r|s, m|n)")
    for arg in ("r", "s", "m", "n"):
        p.add_argument(arg, type=int)

    p = add("dims", _cmd_dims, "even|odd dimensions of Gr(r|s, m|n)")
    for arg in ("r", "s", "m", "n"):
        p.add_argument(arg, type=int)

    p = add("defect", _cmd_defect, "defect of a root system family")
    p.add_argument("family", choices=("gl", "sl", "osp", "d21a", "g3", "f4"))
    p.add_argument("params", nargs="*",
                   help="family parameters, e.g. 'gl 2 3' or 'd21a 1/2'; "
                        "negative values go after '--', e.g. 'd21a -- -1/2'")

    p = add("c-table", _cmd_c_table, "closed-form localization constants C(r, n)")
    p.add_argument("nmax", type=_int_in_range(0))
    p.add_argument("--brute", action="store_true")
    p.add_argument("--samples", type=_int_in_range(1), default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("localize", _cmd_localize, "equal-rank localization fixed-point sum")
    p.add_argument("r", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--samples", type=_int_in_range(1), default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("splitting", _cmd_splitting, "Levi splitting predicate")
    p.add_argument("kind", choices=("gl", "q"))
    p.add_argument("r", type=int)
    p.add_argument("s_or_n", type=int)
    p.add_argument("m", type=int, nargs="?")
    p.add_argument("n", type=int, nargs="?")

    p = add("chain", _cmd_chain, "certified minimal splitting chain")
    p.add_argument("family", type=str.upper, choices=("GL", "Q"))
    p.add_argument("params", type=int, nargs="+")

    p = add("casimir", _cmd_casimir, "Casimir eigenvalue for a built-in pair")
    p.add_argument("pair", choices=("osp", "g12", "f31"))
    p.add_argument("weight", help="comma-separated rational coefficients")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)

    p = add("verify", _cmd_verify, "run every identity sweep")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-n", type=_int_in_range(0, MAX_N_GRASS), default=6,
                   help="exhaustive bound for grassmannian sweeps "
                        f"(0 to {MAX_N_GRASS})")
    p.add_argument("--max-n-c", type=_int_in_range(0, MAX_N_C), default=12,
                   help="brute-force bound for the subset-sum sweeps "
                        f"(0 to {MAX_N_C})")

    return parser


def _normalize_args(parser, args):
    """Resolve the positional arguments that argparse cannot; a wrong count
    is a usage error (exit 2)."""
    if args.verb == "splitting":
        if args.kind == "gl":
            if args.m is None or args.n is None:
                parser.error("splitting gl requires r s m n")
            args.s = args.s_or_n
        else:
            if args.m is not None or args.n is not None:
                parser.error("splitting q requires r n only")
            args.n = args.s_or_n
    elif args.verb == "chain":
        if args.family == "GL" and len(args.params) != 2:
            parser.error("chain GL requires m and n")
        if args.family == "Q" and len(args.params) != 1:
            parser.error("chain Q requires n")
    elif args.verb == "casimir":
        given = (args.m is not None, args.n is not None)
        if args.pair == "osp" and given != (True, True):
            parser.error("casimir osp requires --m and --n")
        if args.pair != "osp" and any(given):
            parser.error(f"casimir {args.pair} takes neither --m nor --n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _normalize_args(parser, args)
    try:
        outcome = args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return outcome if isinstance(outcome, int) else 0


if __name__ == "__main__":
    sys.exit(main())
