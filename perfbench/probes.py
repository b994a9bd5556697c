"""Per-layer probes: timed calls into each module's public functions.

Every probe makes its inputs from the seed, times the calls from the
benchmark's own code, and checks the outputs exactly.  ``per_layer_names``
lists every name the probes and the traced pass report; BENCHMARK.json
must declare exactly these.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import statistics
import sys
import time
from fractions import Fraction

import tracing
import workloads

VERIFY_CHECK_NAMES = (
    "check_pfaffian_square", "check_pfaffian_congruence", "check_alpha_agreement",
    "check_defect_table", "check_root_system_invariants", "check_nonvanishing",
    "check_volume_symmetry", "check_cross_formula", "check_flag_identity",
    "check_two_pi_power", "check_c_table", "check_c_recursions", "check_c_vanishing",
    "check_gl_localization", "check_casimir_positivity", "check_rho_coefficients",
    "check_d21a_weights", "check_chains", "check_predicate_agreement",
    "check_sdim_necessity",
)
SPAWN_REPEATS = 5
WARM_REPEATS = 5


def kernel_labels() -> list[str]:
    inputs = workloads.make_inputs("kernels_large", 0)
    return [op.label for op in workloads.kernel_ops(inputs)]


def per_layer_names() -> list[str]:
    names = [f"{label}_ms" for label in kernel_labels()]
    names += ["exactnum.alpha_pfaffian.n4_ms", "rootsys.build_root_system.gl6_6_ms"]
    for kernel in ("c_bruteforce", "gl_localization"):
        names += [f"qlocal.{kernel}.subsets", f"qlocal.{kernel}.subsets_per_s"]
    names += ["grassvol.volume.sweep8_ms", "grassvol.volume_via_fibration.sweep8_ms",
              "splitting.minimal_chain.gl_grid_ms", "sympair.casimir_eigenvalue_us",
              "sympair.positivity_check_us"]
    names += [f"verify.{name}_ms" for name in VERIFY_CHECK_NAMES]
    names += ["verify.checks_failed", "cli.interpreter_ms", "cli.import_ms"]
    names += [f"cli.main.{verb}_ms" for verb in workloads.CLI_VERBS]
    for layer in tracing.LAYERS:
        names += [f"layer.{layer}.self_s", f"layer.{layer}.calls"]
    names += ["trace_overhead_frac", "fail_frac"]
    return names


class Tally:
    """Operations attempted and failed across the probes."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def record(self, label: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed.append(label)


def _median_ms(fn, repeats: int = WARM_REPEATS) -> tuple[float, object]:
    times, value = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times), value


def _limit(op_limit: float, deadline: float) -> float:
    return max(1.0, min(op_limit, deadline - time.perf_counter()))


def probe_kernels(seed: int, tally: Tally, out: dict, deadline: float):
    inputs = workloads.make_inputs("kernels_large", seed)
    expected = workloads.expected_values("kernels_large", inputs)
    results = {}
    for op in workloads.kernel_ops(inputs):
        start = time.perf_counter()
        results[op.label] = op.run(_limit(op.limit, deadline), None)
        out[f"{op.label}_ms"] = (time.perf_counter() - start) * 1e3
    for label, ok in workloads.check_pass("kernels_large", results, expected).items():
        tally.record(label, ok)
    for kernel in ("c_bruteforce", "gl_localization"):
        # each call sums over all r-subsets, r = n // 2, of one parameter vector
        subsets = sum(math.comb(n, n // 2) for n in inputs["params"])
        spent = sum(out[f"qlocal.{kernel}.n{n}_ms"] for n in inputs["params"])
        out[f"qlocal.{kernel}.subsets"] = subsets
        out[f"qlocal.{kernel}.subsets_per_s"] = subsets / (spent / 1e3)


def probe_small_kernels(seed: int, tally: Tally, out: dict):
    from supervol import exactnum, grassvol, rootsys, splitting, sympair

    rng = random.Random(f"probe:{seed}")
    c = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(4)]
    d = [Fraction(rng.choice([x for x in range(-8, 9) if x]), rng.randint(1, 3))
         for _ in range(4)]
    q01, q10 = exactnum.realified_diagonal_action(c, d)
    ms, value = _median_ms(lambda: exactnum.alpha_pfaffian(q01, q10))
    out["exactnum.alpha_pfaffian.n4_ms"] = ms
    tally.record("exactnum.alpha_pfaffian.n4", value == exactnum.alpha_diagonal(c, d))

    ms, system = _median_ms(lambda: rootsys.build_root_system("gl", 6, 6))
    out["rootsys.build_root_system.gl6_6_ms"] = ms
    tally.record("rootsys.build_root_system.gl6_6", len(system.roots) == 12 * 12 - 12)

    specs = [grassvol.GrassSpec(r, s, m, n)
             for m, n in itertools.product(range(9), repeat=2)
             for r, s in itertools.product(range(m + 1), range(n + 1))]
    start = time.perf_counter()
    volumes = [grassvol.volume(spec) for spec in specs]
    out["grassvol.volume.sweep8_ms"] = (time.perf_counter() - start) * 1e3
    defined = [(spec if spec.r >= spec.s else spec.swapped(), vol)
               for spec, vol in zip(specs, volumes) if not vol.is_zero()]
    start = time.perf_counter()
    fibred = [grassvol.volume_via_fibration(spec) for spec, _ in defined]
    out["grassvol.volume_via_fibration.sweep8_ms"] = (time.perf_counter() - start) * 1e3
    tally.record("grassvol.volume.sweep8",
                 all(f == vol for f, (_, vol) in zip(fibred, defined)))

    groups = [splitting.GL(m, n) for m, n in itertools.product(range(6), repeat=2)]
    start = time.perf_counter()
    chains = [splitting.minimal_chain(g) for g in groups]
    out["splitting.minimal_chain.gl_grid_ms"] = (time.perf_counter() - start) * 1e3
    tally.record("splitting.minimal_chain.gl_grid", all(ch.validate() for ch in chains))

    pairs = [sympair.osp_pair(1, 3), sympair.g12_pair(), sympair.f31_pair()]
    cases = []
    for pair in pairs:
        for _ in range(100):
            weight = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(pair.rank)]
            cases.append((pair, weight))
    start = time.perf_counter()
    values = [sympair.casimir_eigenvalue(pair, w) for pair, w in cases]
    out["sympair.casimir_eigenvalue_us"] = (time.perf_counter() - start) * 1e6 / len(cases)
    start = time.perf_counter()
    positive = [sympair.positivity_check(pair, w) for pair, w in cases]
    out["sympair.positivity_check_us"] = (time.perf_counter() - start) * 1e6 / len(cases)
    tally.record("sympair.casimir", all(
        v == workloads.casimir_value(pair.gram, pair.rho, w) and p == (v > 0)
        for (pair, w), v, p in zip(cases, values, positive)))


def probe_verify(seed: int, tally: Tally, out: dict, notes: dict, deadline: float):
    """Each sweep of ``verify.run_all`` at the CLI's default bounds."""
    from supervol import verify

    verify_seed = workloads.make_inputs("verify_default", seed)["verify_seed"]
    tracer = tracing.Tracer()
    tracer.install({"verify": verify})
    try:
        results = workloads.call_with_alarm(lambda: verify.run_all(seed=verify_seed),
                                            _limit(workloads.VERIFY_TIMEOUT, deadline))
    finally:
        tracer.uninstall()
    if results is workloads.TIMEOUT:
        results = []
    durations = tracing.check_durations(tracer.spans)
    for name in VERIFY_CHECK_NAMES:
        out[f"verify.{name}_ms"] = durations.pop(name, 0.0)
    notes["verify_checks_not_declared"] = sorted(durations)
    passed = sum(1 for r in results if r.passed)
    # a sweep cut off by its time limit counts every check it did not pass
    out["verify.checks_failed"] = max(len(results), workloads.VERIFY_CHECKS) - passed
    tally.record("verify.run_all", passed == len(results) == workloads.VERIFY_CHECKS)


def probe_cli(seed: int, tally: Tally, out: dict, env: dict, cwd: str):
    from supervol import cli

    bare = []
    for _ in range(SPAWN_REPEATS):
        start = time.perf_counter()
        code = workloads.spawn([sys.executable, "-c", "pass"], env, cwd, 30)
        bare.append((time.perf_counter() - start) * 1e3)
        tally.record("cli.interpreter", code == (0, "", ""))
    out["cli.interpreter_ms"] = statistics.median(bare)

    script = ("import time; t = time.perf_counter(); import supervol.cli; "
              "print(time.perf_counter() - t)")
    imports = []
    for _ in range(SPAWN_REPEATS):
        result = workloads.spawn([sys.executable, "-c", script], env, cwd, 30)
        ok = result is not workloads.TIMEOUT and result[0] == 0
        tally.record("cli.import", ok)
        if ok:
            imports.append(float(result[1]) * 1e3)
    out["cli.import_ms"] = statistics.median(imports) if imports else 0.0

    queries = workloads.make_inputs("cli_cold", seed)["queries"]
    first = {}
    for i, query in enumerate(queries):
        first.setdefault(query[0], (i, query))
    expected = workloads.expected_values("cli_cold", {"queries": queries})
    results = {}
    for verb in workloads.CLI_VERBS:
        i, query = first[verb]

        def call(query=query):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(query))
            return code, buffer.getvalue(), ""

        call()
        out[f"cli.main.{verb}_ms"], results[f"cli.{verb}.{i}"] = _median_ms(call)
    for label, ok in workloads.check_pass("cli_cold", results, expected).items():
        tally.record(f"{label}.in_process", ok)
