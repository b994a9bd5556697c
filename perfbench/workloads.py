"""Seeded inputs, operations and exact output checks for each workload.

Inputs are plain data made from the seed alone; the program receives
only these inputs.  Expected values come from a route independent of
the one being timed and are computed outside every timed region, by
``expected_values``.  ``check_pass`` compares each operation's output
with its expected value; a wrong expected value makes it fail.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("verify_default", "kernels_large", "cli_cold")

PFAFFIAN_SIZES = (8, 12, 16, 20)
SUBSET_SIZES = (10, 12, 14)
DEFECT_CASES = (("gl", 4, 4), ("gl", 5, 5), ("gl", 6, 6), ("osp", 8, 8))
VERIFY_CHECKS = 20

# Defects of orthosymplectic root systems osp(M|2n) used as test data;
# each equals the Witt index min(M // 2, n) of the invariant form.
OSP_DEFECT = {(1, 2): 0, (2, 2): 1, (3, 2): 1, (4, 2): 1, (4, 4): 2,
              (5, 4): 2, (6, 4): 2, (6, 6): 3, (8, 8): 4}
DEFECT_ONE = (("d21a", "1"), ("d21a", "1/2"), ("d21a", "2"), ("g3",), ("f4",))

CLI_VERBS = ("volume", "sdim", "dims", "splitting", "chain", "casimir",
             "c-table", "qvolume", "defect")
CLI_MIX = 30
CASIMIR_PAIRS = ("f31", "g12", "osp")
# Gram matrix and rho coefficients of the fixed pairs, as published; the
# rank-one osp pair has Gram ((2,),) and rho = n - m - 1.
CASIMIR_DATA = {"g12": (((6, -3), (-3, 2)), (1, 1)),
                "f31": (((6, -3, 0), (-3, 16, -4), (0, -4, 8)), (1, 2, 3))}

TIMEOUT = "timeout"
# Per-operation limits in seconds; an overrun is a failed operation.
KERNEL_TIMEOUT = 60.0
QUERY_TIMEOUT = 30.0
VERIFY_TIMEOUT = 120.0
TRACE_CHILD = str(Path(__file__).with_name("tracing.py"))


class OpTimeout(Exception):
    """Raised inside an in-process operation that ran past its limit."""


@dataclass
class Op:
    """One timed unit of work.

    ``run(timeout, tracer)`` returns the raw output; with a tracer it
    records the layer spans of the operation as well.
    """

    label: str
    run: Callable[[float, Any], Any]
    limit: float = KERNEL_TIMEOUT


# --- inputs -----------------------------------------------------------------

def _skew(n: int, rng: random.Random) -> tuple[tuple[Fraction, ...], ...]:
    """A dense skew matrix: no zero above the diagonal, so the Pfaffian
    expansion visits the same terms whatever the seed."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))
            rows[i][j], rows[j][i] = x, -x
    return tuple(map(tuple, rows))


def _params(n: int, rng: random.Random) -> tuple[int, ...]:
    """Distinct nonzero integers with no pair summing to zero."""
    chosen: list[int] = []
    while len(chosen) < n:
        x = rng.randint(1, 40 + 4 * n) * rng.choice((1, -1))
        if x not in chosen and -x not in chosen:
            chosen.append(x)
    return tuple(chosen)


def _grass(rng: random.Random, top: int = 6) -> list[str]:
    m, n = rng.randint(0, top), rng.randint(0, top)
    return [str(rng.randint(0, m)), str(rng.randint(0, n)), str(m), str(n)]


def _cli_query(verb: str, rng: random.Random) -> list[str]:
    if verb in ("volume", "sdim", "dims"):
        return [verb] + _grass(rng)
    if verb == "splitting":
        if rng.random() < 0.5:
            return [verb, "gl"] + _grass(rng)
        n = rng.randint(0, 10)
        return [verb, "q", str(rng.randint(0, n)), str(n)]
    if verb == "chain":
        if rng.random() < 0.5:
            return [verb, "GL", str(rng.randint(0, 5)), str(rng.randint(0, 5))]
        return [verb, "Q", str(rng.randint(0, 10))]
    if verb == "casimir":
        pair = rng.choice(CASIMIR_PAIRS)
        rank = 1 if pair == "osp" else len(CASIMIR_DATA[pair][0])
        weight = [0] * rank
        while not any(weight):
            weight = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(rank)]
        argv = [verb, pair, ",".join(str(w) for w in weight)]
        if pair == "osp":
            m = rng.randint(0, 3)
            argv += ["--m", str(m), "--n", str(rng.randint(m + 1, 5))]
        return argv
    if verb == "c-table":
        return [verb, str(rng.randint(0, 10))]
    if verb == "qvolume":
        n = rng.randint(0, 10)
        return [verb, str(rng.randint(0, n)), str(n)]
    if verb == "defect":
        kind = rng.random()
        if kind < 0.5:
            return [verb, "gl", str(rng.randint(0, 3)), str(rng.randint(0, 3))]
        if kind < 0.8:
            small = [key for key, value in sorted(OSP_DEFECT.items()) if value <= 3]
            return [verb, "osp"] + [str(x) for x in rng.choice(small)]
        return [verb] + list(rng.choice(DEFECT_ONE))
    raise ValueError(verb)


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a workload feeds the program, made from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_default":
        return {"verify_seed": rng.randrange(10 ** 8)}
    if workload == "kernels_large":
        return {
            "skew": {n: _skew(n, rng) for n in PFAFFIAN_SIZES},
            "params": {n: _params(n, rng) for n in SUBSET_SIZES},
            "defects": DEFECT_CASES,
        }
    if workload == "cli_cold":
        verbs = list(CLI_VERBS) + [rng.choice(CLI_VERBS)
                                   for _ in range(CLI_MIX - len(CLI_VERBS))]
        rng.shuffle(verbs)
        return {"queries": [_cli_query(v, rng) + ["--format", "json"] for v in verbs]}
    raise ValueError(f"unknown workload {workload!r}")


# --- operations -------------------------------------------------------------

@contextlib.contextmanager
def alarm(timeout: float):
    """Raise OpTimeout in this thread once ``timeout`` seconds have passed."""
    def on_alarm(signum, frame):
        raise OpTimeout()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def call_with_alarm(fn: Callable[[], Any], timeout: float):
    """Run fn in this thread; an overrun returns TIMEOUT."""
    try:
        with alarm(timeout):
            return fn()
    except OpTimeout:
        return TIMEOUT


def spawn(argv: list[str], env: dict, cwd: str, timeout: float):
    """Run a command to completion; returns (exit code, stdout, stderr).

    The limit is a SIGALRM, not ``subprocess``'s own timeout: that one
    polls for the exit with sleeps of up to 50 ms, which would add up to
    50 ms to every measured latency.
    """
    with subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        def finish():
            stdout, stderr = proc.communicate()
            return proc.returncode, stdout, stderr

        try:
            return call_with_alarm(finish, timeout)
        finally:
            if proc.returncode is None:
                proc.kill()


def traced_spawn(args: list[str], env: dict, cwd: str, timeout: float, tracer):
    """``python -m supervol args`` through the tracing shim; the child's
    spans are grafted under the tracer's open span."""
    start = time.monotonic_ns()
    out = spawn([sys.executable, TRACE_CHILD, *args], env, cwd, timeout)
    stop = time.monotonic_ns()
    if out is TIMEOUT:
        return out
    code, stdout, stderr = out
    stderr, _, last = stderr.rstrip("\n").rpartition("\n")
    record = json.loads(last)
    parent = tracer.stack[-1] if tracer.stack else None
    tracer.add("interpreter.start", start, record["start_ns"], parent)
    tracer.graft(record["spans"], parent)
    tracer.add("interpreter.exit", record["end_ns"], stop, parent)
    return code, stdout, stderr


def cli_op(label: str, args: list[str], env: dict, cwd: str, limit: float) -> Op:
    def run(timeout: float, tracer):
        if tracer is None:
            return spawn([sys.executable, "-m", "supervol", *args], env, cwd, timeout)
        return traced_spawn(args, env, cwd, timeout, tracer)
    return Op(label, run, limit)


def kernel_op(label: str, fn: Callable[[], Any]) -> Op:
    """``fn`` must reach supervol through module attributes at call time,
    so that a traced pass, which rebinds them, sees the calls."""
    return Op(label, lambda timeout, tracer: call_with_alarm(fn, timeout))


def kernel_ops(inputs: dict) -> list[Op]:
    from supervol import exactnum, qlocal, rootsys

    ops = []
    for n, m in inputs["skew"].items():
        ops.append(kernel_op(f"exactnum.pfaffian.n{n}", lambda m=m: exactnum.pfaffian(m)))
        ops.append(kernel_op(f"exactnum.det.n{n}", lambda m=m: exactnum.det(m)))
    for n, a in inputs["params"].items():
        ops.append(kernel_op(f"qlocal.c_bruteforce.n{n}",
                             lambda n=n, a=a: qlocal.c_bruteforce(n // 2, n, [a])))
        ops.append(kernel_op(f"qlocal.gl_localization.n{n}",
                             lambda n=n, a=a: qlocal.gl_localization(n // 2, n, a)))
    for family, p, q in inputs["defects"]:
        ops.append(kernel_op(
            f"rootsys.defect.{family}{p}_{q}",
            lambda f=family, p=p, q=q: rootsys.defect(rootsys.build_root_system(f, p, q))))
    return ops


def make_ops(workload: str, inputs: dict, env: dict, cwd: str) -> list[Op]:
    if workload == "verify_default":
        args = ["verify", "--format", "json", "--seed", str(inputs["verify_seed"])]
        return [cli_op("cli.verify", args, env, cwd, VERIFY_TIMEOUT)]
    if workload == "kernels_large":
        return kernel_ops(inputs)
    return [cli_op(f"cli.{q[0]}.{i}", q, env, cwd, QUERY_TIMEOUT)
            for i, q in enumerate(inputs["queries"])]


# --- expected values (independent routes, never timed) ----------------------

def _defect_expected(family: str, params) -> int:
    if family == "gl":
        return min(int(params[0]), int(params[1]))
    if family == "osp":
        return OSP_DEFECT[(int(params[0]), int(params[1]))]
    return 1


class _SubsetSums:
    """Brute-force C(r, n) on the benchmark's own parameters, memoized."""

    def __init__(self):
        self.memo: dict[tuple[int, int], Fraction] = {}

    def __call__(self, r: int, n: int) -> Fraction:
        from supervol import qlocal

        if (r, n) not in self.memo:
            a = _params(n, random.Random(f"c:{n}"))
            self.memo[(r, n)] = qlocal.c_bruteforce(r, n, [a]).consensus
        return self.memo[(r, n)]


def _volume_payload(r: int, s: int, m: int, n: int) -> dict:
    from supervol import grassvol

    spec = grassvol.GrassSpec(r, s, m, n)
    if _sdim_from_dims(r, s, m, n) < 0:
        return grassvol.VolumeExpr.zero().to_payload()
    if r < s:
        spec = spec.swapped()
    return grassvol.volume_via_fibration(spec).to_payload()


def _sdim_from_dims(r: int, s: int, m: int, n: int) -> int:
    from supervol import grassvol

    d = grassvol.dims(grassvol.GrassSpec(r, s, m, n))
    return d.even - d.odd


def casimir_value(gram, rho, weight) -> Fraction:
    """(weight + 2 rho, weight) summed entry by entry over the Gram matrix."""
    k = len(gram)
    return sum((weight[i] + 2 * rho[i]) * gram[i][j] * weight[j]
               for i in range(k) for j in range(k))


def _casimir_expected(args: list[str]) -> dict:
    pair = args[1]
    weight = [Fraction(w) for w in args[2].split(",")]
    if pair == "osp":
        m, n = int(args[4]), int(args[6])
        gram, rho = ((2,),), (n - m - 1,)
    else:
        gram, rho = CASIMIR_DATA[pair]
    value = casimir_value(gram, rho, weight)
    # the simple roots are the coordinate vectors, so (w, alpha_i) = (gram w)_i
    form = [sum(g * w for g, w in zip(row, weight)) for row in gram]
    return {"eigenvalue": str(value), "positive": value > 0,
            "dominant": all(x >= 0 for x in form)}


def _cli_expected(args: list[str], csum: _SubsetSums):
    from supervol import grassvol, splitting

    verb, rest = args[0], args[1:-2]  # drop the trailing --format json
    if verb in ("volume", "sdim", "dims"):
        r, s, m, n = map(int, rest)
        if verb == "volume":
            return _volume_payload(r, s, m, n)
        if verb == "sdim":
            return _sdim_from_dims(r, s, m, n)
        # even + odd is the total dimension; even - odd is the sdim product formula
        total = (r + s) * (m + n - r - s)
        diff = grassvol.sdim(grassvol.GrassSpec(r, s, m, n))
        return {"even": (total + diff) // 2, "odd": (total - diff) // 2}
    if verb == "splitting":
        if rest[0] == "gl":
            r, s, m, n = map(int, rest[1:])
            zero = _volume_payload(r, s, m, n)["coeff"] == "0"
            return {"splitting": not zero, "sdim": _sdim_from_dims(r, s, m, n)}
        r, n = map(int, rest[1:])
        return {"splitting": csum(r, n) != 0, "parity_product": r * (n - r)}
    if verb == "chain":
        nums = list(map(int, rest[1:]))
        group = splitting.GL(*nums) if rest[0] == "GL" else splitting.Q(*nums)
        chain = splitting.minimal_chain(group)
        if not chain.validate():
            return {"invalid chain": rest}
        return dict(chain.to_payload(), validated=True)
    if verb == "casimir":
        return _casimir_expected(args)
    if verb == "c-table":
        nmax = int(rest[0])
        return [{"n": n, "values": [int(csum(r, n)) for r in range(n + 1)]}
                for n in range(nmax + 1)]
    if verb == "qvolume":
        r, n = map(int, rest)
        c = csum(r, n)
        vol = grassvol.VolumeExpr.make(c, 2 * r * (n - r) if c else 0)
        return {"c": str(c), "volume": vol.to_payload()}
    if verb == "defect":
        return _defect_expected(rest[0], rest[1:])
    raise ValueError(verb)


def expected_values(workload: str, inputs: dict) -> dict[str, Any]:
    """Expected output of every operation label, by an independent route."""
    if workload == "verify_default":
        return {"cli.verify": {"checks": VERIFY_CHECKS, "failed": 0}}
    if workload == "kernels_large":
        from supervol import qlocal

        out: dict[str, Any] = {}
        for n in inputs["params"]:
            r = n // 2
            out[f"qlocal.c_bruteforce.n{n}"] = qlocal.c_closed(r, n)
            out[f"qlocal.gl_localization.n{n}"] = math.comb(n, r)
        for family, p, q in inputs["defects"]:
            out[f"rootsys.defect.{family}{p}_{q}"] = _defect_expected(family, (p, q))
        return out
    csum = _SubsetSums()
    # the JSON round trip turns tuples into lists, as the CLI output has them
    return {f"cli.{q[0]}.{i}": json.loads(json.dumps(_cli_expected(q, csum)))
            for i, q in enumerate(inputs["queries"])}


# --- checks -----------------------------------------------------------------

def envelope_validator():
    import jsonschema
    from supervol.schema import ENVELOPE_SCHEMA

    return jsonschema.Draft202012Validator(ENVELOPE_SCHEMA)


def _check_verify(output, expected) -> bool:
    code, stdout, _ = output
    if code != 0:
        return False
    lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    if not lines:
        return False
    checks, summary = lines[:-1], lines[-1]
    return (len(checks) == expected["checks"]
            and all(c.get("passed") is True for c in checks)
            and summary == {"passed": expected["checks"], "failed": expected["failed"]})


def _check_envelope(output, expected, validator, verb: str) -> bool:
    code, stdout, _ = output
    if code != 0:
        return False
    envelope = json.loads(stdout)
    if not validator.is_valid(envelope) or envelope["command"] != verb:
        return False
    return envelope["result"] == expected


def _check_one(workload: str, label: str, results: dict[str, Any], expected,
               validator) -> bool:
    output = results[label]
    if output is TIMEOUT or isinstance(output, BaseException):
        return False
    if workload == "verify_default":
        return _check_verify(output, expected)
    if workload == "cli_cold":
        return _check_envelope(output, expected, validator, label.split(".")[1])
    if label.startswith(("exactnum.pfaffian", "exactnum.det")):
        n = label.rsplit(".", 1)[1]
        pf = results.get(f"exactnum.pfaffian.{n}")
        det = results.get(f"exactnum.det.{n}")
        return isinstance(pf, Fraction) and isinstance(det, Fraction) and pf * pf == det
    if label.startswith("qlocal.c_bruteforce"):
        return output.agrees and output.consensus == expected
    return output == expected


def check_pass(workload: str, results: dict[str, Any], expected: dict[str, Any],
               validator=None) -> dict[str, bool]:
    """Whether each operation of one pass produced its exact expected output."""
    if workload == "cli_cold" and validator is None:
        validator = envelope_validator()
    ok: dict[str, bool] = {}
    for label in results:
        try:
            ok[label] = bool(_check_one(workload, label, results, expected.get(label),
                                        validator))
        except Exception:  # a malformed output fails its check; the run goes on
            ok[label] = False
    return ok
