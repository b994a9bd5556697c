"""supervol benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload verify_default --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One process with one worker drives the program in a
closed loop with a single client: each operation starts when the
previous one has finished.  Workloads, metrics and the layer map are
described in perfbench/NOTES.md.

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced passes, runs the per-layer probes and
reports the per-layer metrics.  Every output is checked exactly outside
the timed regions.  The last line of standard output is the result
object; the line before it holds the run facts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_BEFORE = 3
SETUP_AFTER_PASS = 2
# Every run ends well inside three minutes, even when operations time out.
HARD_LIMIT_S = 165.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="import supervol.cli, make the inputs and exit")
    return parser.parse_args(argv)


def setup(workload: str, seed: int) -> dict:
    """What a run does before its timed pass: import and make inputs."""
    sys.path.insert(0, str(SRC))
    import supervol.cli  # noqa: F401

    return workloads.make_inputs(workload, seed)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class SetupTimer:
    """Spawn-to-exit times of fresh interpreters that only run the set-up.

    The spawns are spread over the run, a few before the first pass and
    a few after each, so that a short slow spell of the shared machine
    cannot move their median.
    """

    def __init__(self, args):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", "0", "--trace", "0"]
        self.times: list[float] = []
        self.spawn(record=False)  # writes the bytecode caches

    def spawn(self, count: int = 1, record: bool = True):
        for _ in range(count):
            start = time.perf_counter()
            result = workloads.spawn(self.argv, child_env(), str(ROOT), 60)
            elapsed = time.perf_counter() - start
            if result is workloads.TIMEOUT or result[0] != 0:
                raise RuntimeError(f"set-up failed: {result}")
            if record:
                self.times.append(elapsed)


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Pass:
    """One pass over the workload's operations."""

    def __init__(self):
        self.outputs: dict[str, object] = {}
        self.latency_s: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0


def run_pass(ops, hard_end: float, tracer=None, index: int = 0) -> Pass:
    record = Pass()
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    for op in ops:
        timeout = max(1.0, min(op.limit, hard_end - time.perf_counter()))
        span = None
        if tracer is not None:
            tracer.op = f"{index}:{op.label}"
            span = tracer.begin(f"bench.{op.label}")
        start = time.perf_counter()
        try:
            output = op.run(timeout, tracer)
        except Exception as exc:  # a failing operation is counted, not fatal
            output = exc
        record.latency_s.append(time.perf_counter() - start)
        if span is not None:
            tracer.end(span)
        record.outputs[op.label] = output
        if output is workloads.TIMEOUT:
            break
    record.wall_s = time.perf_counter() - wall0
    record.cpu_s = cpu_seconds() - cpu0
    return record


def p90(samples: list[float]) -> float:
    """Interpolated 90th percentile."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def query_samples(workload: str, passes: list[Pass]) -> list[float]:
    """Latencies in ms that query_p50_ms and query_p90_ms are taken over.

    The kernels of ``kernels_large`` take from under 1 ms to seconds, in
    one tight cluster each.  Quantiles of their pooled samples fall in the
    gap between two clusters and read as the slowest sample of one kernel
    or the fastest of the next, so there they are taken over each
    kernel's median instead.  Elsewhere every sample counts.
    """
    if workload == "kernels_large":
        return [statistics.median(p.latency_s[i] for p in passes
                                  if i < len(p.latency_s)) * 1e3
                for i in range(max(len(p.latency_s) for p in passes))]
    return [x * 1e3 for p in passes for x in p.latency_s]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def measure(ops, seconds: float, hard_end: float, run_one) -> list:
    """Repeat passes while the next one, at the mean time per pass so far,
    still fits in ``seconds``; at least one pass runs."""
    start, passes = time.perf_counter(), []
    while True:
        passes.append(run_one(len(passes)))
        spent = time.perf_counter() - start
        per_pass = spent / len(passes)
        if spent + per_pass > seconds or time.perf_counter() + per_pass > hard_end:
            return passes


def check_passes(workload: str, inputs: dict, passes: list[Pass]) -> tuple[int, list[str]]:
    expected = workloads.expected_values(workload, inputs)
    validator = workloads.envelope_validator() if workload == "cli_cold" else None
    attempted, failed = 0, []
    for i, record in enumerate(passes):
        for label, ok in workloads.check_pass(workload, record.outputs, expected,
                                              validator).items():
            attempted += 1
            if not ok:
                failed.append(f"{i}:{label}")
    return attempted, failed


def end_to_end(args, inputs, ops, hard_end) -> tuple[dict, int, list[str], dict]:
    setup_timer = SetupTimer(args)
    setup_timer.spawn(SETUP_BEFORE)

    def one_pass(i):
        record = run_pass(ops, hard_end, index=i)
        setup_timer.spawn(SETUP_AFTER_PASS)
        return record

    passes = measure(ops, args.seconds, hard_end, one_pass)
    attempted, failed = check_passes(args.workload, inputs, passes)
    latencies = query_samples(args.workload, passes)
    tail = p90(latencies)
    metrics = {
        "setup_s": statistics.median(setup_timer.times),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "query_p50_ms": statistics.median(latencies),
        "query_p90_ms": tail,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"pass_wall_s": [p.wall_s for p in passes], "setup_samples_s": setup_timer.times,
             "passes": len(passes), "query_samples": len(latencies),
             "query_samples_above_p90": sum(x > tail for x in latencies)}
    return metrics, attempted, failed, notes


def per_layer(args, inputs, ops, hard_end, env) -> tuple[dict, int, list[str], dict]:
    import probes
    import tracing

    modules = tracing.supervol_modules()
    tracer = tracing.Tracer()
    untraced, traced = [], []

    def pair(i):
        untraced.append(run_pass(ops, hard_end, index=i))
        tracer.install(modules)
        try:
            traced.append(run_pass(ops, hard_end, tracer, index=i))
        finally:
            tracer.uninstall()

    measure(ops, args.seconds, hard_end, pair)
    attempted, failed = check_passes(args.workload, inputs, untraced + traced)

    out: dict[str, float] = {}
    for layer, (self_s, calls) in tracing.layer_totals(tracer.spans).items():
        out[f"layer.{layer}.self_s"] = self_s / len(traced)
        out[f"layer.{layer}.calls"] = calls / len(traced)
    out["trace_overhead_frac"] = (statistics.median(p.wall_s for p in traced)
                                  / statistics.median(p.wall_s for p in untraced) - 1)

    tally, notes = probes.Tally(), {"pairs": len(traced)}
    probes.probe_kernels(args.seed, tally, out, hard_end)
    probes.probe_small_kernels(args.seed, tally, out)
    probes.probe_verify(args.seed, tally, out, notes, hard_end)
    probes.probe_cli(args.seed, tally, out, env, str(ROOT))
    attempted += tally.attempted
    failed += tally.failed
    out["fail_frac"] = len(failed) / attempted

    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["id", "parent", "name", "start_ns", "end_ns", "op"],
         "spans": tracer.spans}))
    notes["spans_file"] = str(spans_file.relative_to(ROOT))
    return out, attempted, failed, notes


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def declared(mode: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "supervol" / "__init__.py").is_file():
        print(f"error: no supervol sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    hard_end = started + HARD_LIMIT_S
    inputs = setup(args.workload, args.seed)
    if args.setup_only:
        return 0

    import supervol

    if Path(supervol.__file__).resolve().parent != SRC / "supervol":
        print(f"error: supervol imported from {supervol.__file__}", file=sys.stderr)
        return 2
    env = child_env()
    ops = workloads.make_ops(args.workload, inputs, env, str(ROOT))
    if args.trace:
        values, attempted, failed, notes = per_layer(args, inputs, ops, hard_end, env)
        units = declared("per_layer")
    else:
        values, attempted, failed, notes = end_to_end(args, inputs, ops, hard_end)
        units = declared("end_to_end")
    if set(values) != set(units):
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 3

    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "git_commit": git_commit(),
        "load": "closed loop, 1 client, 1 worker process",
        "attempted": attempted, "failed": len(failed), "first_failures": failed[:10],
        "run_s": time.perf_counter() - started, **notes,
    }
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
