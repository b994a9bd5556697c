"""In-memory spans around the benchmark's calls into each supervol layer.

A traced pass rebinds coarse public entry points on the module objects
with timing wrappers (``Tracer.install``) and restores them afterwards.
Calls made through a name bound by ``from ... import`` inside the
package are not seen; fine-grained helpers (``inner``, ``as_fraction``)
are left unwrapped on purpose, to keep the overhead small.

A span is ``[id, parent, name, start_ns, end_ns, op]``; times come from
the system-wide monotonic clock, so spans recorded by a child process
line up with the parent's.  Spans of one benchmark operation share ``op``.

Run as a script, this file is the traced form of ``python -m supervol``:
it records its own interpreter start, the import of ``supervol.cli`` and
the wrapped calls made by ``cli.main``, and prints the spans as the last
line of standard error.
"""

import time

_T0 = time.monotonic_ns()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

ENTRY_POINTS = {
    "exactnum": ("pfaffian", "det", "inverse", "solve", "mat_mul",
                 "alpha_pfaffian", "alpha_diagonal", "realified_diagonal_action"),
    "qlocal": ("c_bruteforce", "gl_localization", "brute_c_table", "c_closed",
               "check_recursions", "check_recursions_on_table",
               "seeded_param_vectors", "alpha_subset"),
    "rootsys": ("build_root_system", "defect", "defect_subgroup_roots",
                "isotropic_roots"),
    "sympair": ("casimir_eigenvalue", "positivity_check", "rho_coefficients",
                "fundamental_weights", "gram_positive_definite", "builtin_pairs",
                "osp_pair", "g12_pair", "f31_pair", "d21a_in_a_star"),
    "grassvol": ("volume", "volume_via_fibration", "sdim", "dims",
                 "check_complement_duality", "check_flag_identity"),
    "splitting": ("minimal_chain", "is_splitting_levi_gl", "is_splitting_levi_q",
                  "sdim_necessity", "GL", "Q"),
    "verify": ("run_all",),
    "cli": ("main",),
}
MODULES = tuple(ENTRY_POINTS)
# Layers that are not supervol modules: interpreter start and exit, the
# import of supervol.cli in a fresh interpreter, and the benchmark itself.
EXTRA_LAYERS = ("interpreter", "import", "bench")
LAYERS = MODULES + EXTRA_LAYERS


class Tracer:
    """Collects spans; ``op`` names the benchmark operation in progress."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self._saved: list[tuple] = []

    def begin(self, name: str, start: int | None = None) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [len(self.spans), parent, name,
                time.monotonic_ns() if start is None else start, None, self.op]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def end(self, span: list, stop: int | None = None):
        self.stack.pop()
        span[4] = time.monotonic_ns() if stop is None else stop

    def add(self, name: str, start: int, stop: int, parent):
        self.spans.append([len(self.spans), parent, name, start, stop, self.op])

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced

    def install(self, modules: dict):
        """Rebind every entry point present on the given module objects;
        on ``verify`` that includes each ``check_*`` sweep."""
        for mod_name, module in modules.items():
            names = ENTRY_POINTS.get(mod_name, ())
            if mod_name == "verify":
                names += tuple(a for a in dir(module) if a.startswith("check_"))
            for attr in names:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(f"{mod_name}.{attr}", original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def graft(self, child_spans: list[list], parent: int | None):
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for sid, cparent, name, start, stop, _ in child_spans:
            self.spans.append([base + sid, parent if cparent is None else base + cparent,
                               name, start, stop, self.op])


def supervol_modules() -> dict:
    import importlib

    return {name: importlib.import_module(f"supervol.{name}") for name in MODULES}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_totals(spans: list[list]) -> dict[str, tuple[float, int]]:
    """Self seconds and span count per layer.

    Self time is a span's duration minus the time its direct children
    cover; children of one span never overlap, since calls nest.
    """
    covered = [0] * len(spans)
    for sid, parent, _, start, stop, _ in spans:
        if parent is not None:
            covered[parent] += stop - start
    totals = {layer: [0, 0] for layer in LAYERS}
    for sid, _, name, start, stop, _ in spans:
        entry = totals.setdefault(layer_of(name), [0, 0])
        entry[0] += stop - start - covered[sid]
        entry[1] += 1
    return {layer: (ns / 1e9, count) for layer, (ns, count) in totals.items()}


def check_durations(spans: list[list]) -> dict[str, float]:
    """Inclusive milliseconds of each ``verify.check_*`` span, by function."""
    out: dict[str, float] = {}
    for _, _, name, start, stop, _ in spans:
        if name.startswith("verify.check_"):
            key = name.split(".", 1)[1]
            out[key] = out.get(key, 0.0) + (stop - start) / 1e6
    return out


def _child_main(argv: list[str]) -> int:
    tracer = Tracer()
    span = tracer.begin("import.supervol_cli", start=_T0)
    from supervol import cli
    tracer.end(span)
    tracer.install(supervol_modules())
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write("\n" + json.dumps({"start_ns": _T0, "end_ns": time.monotonic_ns(),
                                            "spans": tracer.spans}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
