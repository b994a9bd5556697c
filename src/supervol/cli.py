"""Command-line interface with exact text or JSON output.

Every command emits either a human-readable line or a JSON envelope
(``--format json``) of the shape::

    {"command": ..., "params": {...}, "result": ..., "rules": [...]}

where ``rules`` names the formulas or criteria that produced the result.
Rationals are rendered as exact strings.  Exit codes: 0 success, 1 domain
error, 2 usage error.

Each handler imports the modules it uses, and calls them as module
attributes at call time, so a verb loads only its own modules (``verify``
only for ``verify``) and a rebound attribute is seen.  ``VERBS`` is the
one table of verbs; a query builds the subparser of its own verb alone,
and help and usage errors use the full parser.  ``verify`` prints the
results of ``verify.run_forked``, which says how the checks are split
between two processes.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

DEFAULT_SEED = 20240001
# Largest accepted ``verify`` bounds.  The grassmannian sweeps grow as
# max_n^4 (at 16 they add about 1 s to a run on a 2 vCPU Xeon); the
# subset sums stop at ``qlocal.MAX_N``, copied here so that parsing
# imports no kernel module.
MAX_N_GRASS = 16
MAX_N_C = 14
# Parameters each family of a verb takes; another count exits 2.  Copied,
# like MAX_N_C, from the arities of ``splitting.LEVI_CRITERIA`` and of
# ``splitting.GL``/``splitting.Q``.
PARAM_COUNTS = {
    "defect": {"gl": 2, "sl": 2, "osp": 2, "d21a": 1, "g3": 0, "f4": 0},
    "splitting": {"gl": 4, "q": 2},
    "chain": {"GL": 2, "Q": 1},
}
# Family of ``splitting`` -> its rule and the text label of its evidence.
SPLITTING_RULES = {"gl": ("levi-splitting-iff-sdim-nonnegative", "sdim"),
                   "q": ("levi-splitting-iff-parity-product-even", "r(n-r)")}
# argparse takes a token that starts with "-" for an option unless it looks
# like a negative number.  Every value here whose "-" is followed by a digit
# or by ".digit" is one (-3, -1/2, -.5, -1,2), and no option starts so.
NEGATIVE_VALUE = re.compile(r"^-\.?\d")


def _emit(args, params: dict, result, rules: list[str], text: str):
    """Print the envelope of ``args.verb``, or ``text``."""
    if args.format == "json":
        envelope = {"command": args.verb, "params": params,
                    "result": result, "rules": rules}
        print(json.dumps(envelope, sort_keys=True))
    else:
        print(text)


def _grass(args):
    """The GrassSpec of a ``volume``, ``sdim`` or ``dims`` query, and its params."""
    from . import grassvol

    params = {"r": args.r, "s": args.s, "m": args.m, "n": args.n}
    return grassvol.GrassSpec(**params), params


def _cmd_volume(args):
    from . import grassvol

    spec, params = _grass(args)
    vol = grassvol.volume(spec)
    rules = (["negative-superdimension-vanishing"] if vol.is_zero()
             else ["signed-binomial-volume-formula"])
    _emit(args, params, vol.to_payload(), rules, vol.render())


def _cmd_qvolume(args):
    from . import grassvol, qlocal

    c = qlocal.c_closed(args.r, args.n)
    vol = grassvol.VolumeExpr.make(c, 2 * args.r * (args.n - args.r))
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
    _emit(args, params, result, rules, f"C({args.r},{args.n}) = {c}; volume = {vol.render()}")
    return 0 if agrees else 1


def _cmd_sdim(args):
    from . import grassvol

    spec, params = _grass(args)
    value = grassvol.sdim(spec)
    _emit(args, params, value, ["superdimension-product-formula"], str(value))


def _cmd_dims(args):
    from . import grassvol

    spec, params = _grass(args)
    d = grassvol.dims(spec)
    _emit(args, params, {"even": d.even, "odd": d.odd}, ["dimension-formula"],
          f"({d.even}|{d.odd})")


def _cmd_defect(args):
    from . import rootsys

    system = rootsys.build_root_system(args.family, *args.params)
    # defect raises unless its greedy pass reaches the Witt index
    value = rootsys.defect(system)
    _emit(args, {"family": args.family, "params": [str(p) for p in args.params]},
          value, ["witt-index-bound"], str(value))


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
        brute_max = min(args.nmax, MAX_N_C)
        table = qlocal.brute_c_table(brute_max, args.seed, args.samples)
        agrees = all(value == qlocal.c_closed(*case) for case, value in table.items())
        rows.append({"brute_force_agrees": agrees})
        lines.append(f"brute force agrees: {agrees}")
        rules.append("localization-subset-sum-bruteforce")
    _emit(args, {"nmax": args.nmax}, rows, rules, "\n".join(lines))
    return 0 if agrees else 1


def _cmd_localize(args):
    from . import qlocal

    vectors = qlocal.seeded_param_vectors(args.n, args.samples, args.seed)
    sums = [qlocal.gl_localization(args.r, args.n, a) for a in vectors]
    expected = math.comb(args.n, args.r)
    agrees = all(s == expected for s in sums)
    _emit(args, {"r": args.r, "n": args.n, "samples": args.samples, "seed": args.seed},
          {"sum": str(sums[0]), "fixed_points": expected, "all_samples_agree": agrees},
          ["equal-rank-fixed-point-count"],
          f"localization sum = {sums[0]} over {expected} fixed points "
          f"({args.samples} parameter samples agree: {agrees})")
    return 0 if agrees else 1


def _cmd_splitting(args):
    from . import splitting

    _, names, criterion, key = splitting.LEVI_CRITERIA[args.family.upper()]
    rule, label = SPLITTING_RULES[args.family]
    check = criterion(*args.params)
    _emit(args, dict(zip(names, args.params)), {"splitting": check.ok, key: check.evidence},
          [rule], f"splitting: {check.ok} ({label} = {check.evidence})")


def _cmd_chain(args):
    from . import splitting

    chain = splitting.minimal_chain(getattr(splitting, args.family)(*args.params))
    if not chain.validate():
        raise ValueError("constructed chain failed validation")
    payload = chain.to_payload()
    payload["validated"] = True
    lines = [" ⊂ ".join(g.label() for g in chain.groups())]
    for step in chain.steps:
        lines.append(f"  {step.sub.label()} ⊂ {step.sup.label()}"
                     f"  [{step.rule}: {step.evidence}]")
    _emit(args, {"family": args.family, "params": list(args.params)},
          payload, ["certified-inclusion-chain"], "\n".join(lines))


def _cmd_casimir(args):
    from . import sympair

    pair = (sympair.osp_pair(args.m, args.n) if args.pair == "osp"
            else getattr(sympair, f"{args.pair}_pair")())
    value = sympair.casimir_eigenvalue(pair, args.weight)
    # the hypothesis of sympair.positivity_check, on the value just computed
    if not any(args.weight):
        raise ValueError("excluded by hypothesis")
    positive = value > 0
    _emit(args, {"pair": pair.name, "weight": [str(w) for w in args.weight]},
          {"eigenvalue": str(value), "positive": positive,
           "dominant": pair.is_dominant(args.weight)},
          ["casimir-eigenvalue-quadratic-form"],
          f"(weight + 2 rho, weight) = {value} (positive: {positive})")


def _cmd_verify(args):
    from . import verify

    results = verify.run_forked(args.seed, args.max_n, args.max_n_c)
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


def _ints(*names):
    """The adder of the int positionals ``names``, in their order."""
    def add(p):
        for name in names:
            p.add_argument(name, type=int)
    return add


def _sample_args(p):
    p.add_argument("--samples", type=_int_in_range(1), default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _qvolume_args(p):
    _ints("r", "n")(p)
    p.add_argument("--brute", action="store_true",
                   help="also run the brute-force subset sum")
    _sample_args(p)


def _defect_args(p):
    p.add_argument("family", type=str.lower, choices=tuple(PARAM_COUNTS["defect"]))
    p.add_argument("params", nargs="*",
                   help="family parameters, e.g. 'gl 2 3', 'd21a 1/2' or "
                        "'d21a -1/2' (also 'd21a -- -1/2')")


def _c_table_args(p):
    p.add_argument("nmax", type=_int_in_range(0))
    p.add_argument("--brute", action="store_true")
    _sample_args(p)


def _localize_args(p):
    p.description = ("The equal-rank localization sum is taken at t = 1, where every "
                     "fixed-point term is exactly 1, so it counts the binom(n, r) "
                     "fixed points and 'all_samples_agree' checks only their "
                     "enumeration.")
    _ints("r", "n")(p)
    _sample_args(p)


def _splitting_args(p):
    p.add_argument("family", type=str.lower, choices=tuple(PARAM_COUNTS["splitting"]))
    p.add_argument("params", type=int, nargs="+", help="'gl r s m n' or 'q r n'")


def _chain_args(p):
    p.add_argument("family", type=str.upper, choices=tuple(PARAM_COUNTS["chain"]))
    p.add_argument("params", type=int, nargs="+")


def _casimir_args(p):
    p.add_argument("pair", type=str.lower, choices=("osp", "g12", "f31"))
    p.add_argument("weight", help="comma-separated rational coefficients, "
                                  "e.g. '1,0' or '-1/2,3'")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)


def _verify_args(p):
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-n", type=_int_in_range(0, MAX_N_GRASS), default=6,
                   help="exhaustive bound for grassmannian sweeps "
                        f"(0 to {MAX_N_GRASS})")
    p.add_argument("--max-n-c", type=_int_in_range(0, MAX_N_C), default=12,
                   help="brute-force bound for the subset-sum sweeps "
                        f"(0 to {MAX_N_C})")


# Every verb in the order of the usage line: its handler, its help and the
# function that adds its arguments to its subparser.
VERBS = {
    "volume": (_cmd_volume, "exact volume of Gr(r|s, m|n)", _ints("r", "s", "m", "n")),
    "qvolume": (_cmd_qvolume, "exact volume of the Q-grassmannian QGr(r, n)",
                _qvolume_args),
    "sdim": (_cmd_sdim, "superdimension of Gr(r|s, m|n)", _ints("r", "s", "m", "n")),
    "dims": (_cmd_dims, "even|odd dimensions of Gr(r|s, m|n)", _ints("r", "s", "m", "n")),
    "defect": (_cmd_defect, "defect of a root system family", _defect_args),
    "c-table": (_cmd_c_table, "closed-form localization constants C(r, n)",
                _c_table_args),
    "localize": (_cmd_localize, "equal-rank localization fixed-point sum", _localize_args),
    "splitting": (_cmd_splitting, "Levi splitting predicate", _splitting_args),
    "chain": (_cmd_chain, "certified minimal splitting chain", _chain_args),
    "casimir": (_cmd_casimir, "Casimir eigenvalue for a built-in pair", _casimir_args),
    "verify": (_cmd_verify, "run every identity sweep", _verify_args),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or with the subparser of ``verb`` alone.
    Both parse a query of that verb alike; help and usage errors need
    the full parser, whose usage line names every verb."""
    parser = argparse.ArgumentParser(
        prog="supervol",
        description="Exact supergrassmannian volumes, localization sums, "
                    "defects, and splitting certificates.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (func, helptext, add_args) in VERBS.items():
        if verb in (None, name):
            p = sub.add_parser(name, help=helptext)
            p._negative_number_matcher = NEGATIVE_VALUE
            p.add_argument("--format", choices=("text", "json"), default="text")
            p.set_defaults(func=func)
            add_args(p)
    return parser


def _usage_error(message: str):
    """Exit 2 with ``message`` under the usage line of the full parser."""
    build_parser().error(message)


def _numbers(tokens: list[str]) -> list:
    """Each token as an int, else a Fraction; a malformed one is a usage error."""
    out = []
    for token in tokens:
        try:
            out.append(int(token))
        except ValueError:
            try:
                out.append(Fraction(token))
            except (ValueError, ZeroDivisionError):
                _usage_error(f"not a rational number: {token!r}")
    return out


def _normalize_args(args, extras: list[str]):
    """Resolve the positional arguments that argparse cannot; a wrong count,
    a malformed number or an unknown argument is a usage error (exit 2)."""
    if extras:
        # argparse ends the params of ``defect``, which may be empty, at the
        # first option; the values after it come back here
        if args.verb != "defect" or any(x.startswith("-") and not NEGATIVE_VALUE.match(x)
                                        for x in extras):
            _usage_error(f"unrecognized arguments: {' '.join(extras)}")
        args.params += extras
    if args.verb in PARAM_COUNTS:
        count = PARAM_COUNTS[args.verb][args.family]
        if len(args.params) != count:
            _usage_error(f"{args.verb} {args.family} requires {count} parameter"
                         f"{'' if count == 1 else 's'}, got {len(args.params)}")
    if args.verb == "defect":
        args.params = _numbers(args.params)
    elif args.verb == "casimir":
        given = (args.m is not None, args.n is not None)
        if args.pair == "osp" and given != (True, True):
            _usage_error("casimir osp requires --m and --n")
        if args.pair != "osp" and any(given):
            _usage_error(f"casimir {args.pair} takes neither --m nor --n")
        args.weight = _numbers(args.weight.split(","))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # every negative value parses as a value, so a "--" marks nothing; it is
    # dropped, so that options after it, such as --format, still count
    if "--" in argv:
        argv.remove("--")
    # a query names its verb first and is parsed by that verb's subparser
    # alone; anything else (help, no verb, an unknown verb) by the full parser
    parser = build_parser(argv[0] if argv and argv[0] in VERBS else None)
    args, extras = parser.parse_known_args(argv)
    _normalize_args(args, extras)
    try:
        outcome = args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return outcome if isinstance(outcome, int) else 0


if __name__ == "__main__":
    sys.exit(main())
