"""The exact kernels hold no memory from one call to the next.

CPython parks a freed tuple of up to 20 items on a free list for its size,
up to 2,000 tuples a size.  A tuple built from a generator is allocated at
a guessed size and then resized, so it is parked on the list of its final
size while the next build again allocates at the guessed size: such a
build in a kernel makes memory grow with every call until those lists are
full.  Each kernel below runs once to warm up, then under ``tracemalloc``
once and ``CALLS`` more times; the peak over all of them must stay within
``TOLERANCE`` of the peak of the first.  A full collection empties the
free lists first, so the growth shows however full earlier tests left them.

The kernels and sizes are those of the benchmark's ``kernels_large``
workload, with inputs drawn the same way, except that the subset sums take
r = 1: ``tracemalloc`` slows the middle ranks about thirtyfold, and the
structures that a call builds and drops are the same at every r.  The
other matrix routines and the pair data that ``verify``'s Casimir sweep
builds for each pair are covered too.
"""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

from supervol import exactnum, qlocal, rootsys, sympair

CALLS = 30
TOLERANCE = 12_000  # bytes, a few dict and small-tuple free lists refilling

_rng = random.Random(5)


def _skew(n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(_rng.randint(1, 9) * _rng.choice((1, -1)), _rng.randint(1, 4))
            rows[i][j], rows[j][i] = x, -x
    return tuple(map(tuple, rows))


def _params(n):
    return [_rng.choice((x, -x)) for x in _rng.sample(range(1, 41 + 4 * n), n)]


SKEW = {n: _skew(n) for n in (8, 12, 16, 20)}
PARAMS = {n: _params(n) for n in (10, 12, 14)}
# a symmetric matrix with a zero diagonal, so that the elimination takes
# its pair step too, and the weights of a realified diagonal action
SYMMETRIC = [[abs(x) for x in row] for row in SKEW[12]]
DIAGONAL = ([Fraction(_rng.randint(1, 9), _rng.randint(1, 4)) for _ in range(6)],
            [Fraction(_rng.randint(1, 9), _rng.randint(1, 4)) for _ in range(6)])

KERNELS = {
    "det": lambda: [exactnum.det(m) for m in SKEW.values()],
    "pfaffian": lambda: [exactnum.pfaffian(m) for m in SKEW.values()],
    "c_bruteforce": lambda: [qlocal.c_bruteforce(1, n, [a]) for n, a in PARAMS.items()],
    "gl_localization": lambda: [qlocal.gl_localization(1, n, a) for n, a in PARAMS.items()],
    "defect": lambda: [rootsys.defect(rootsys.build_root_system(*case))
                       for case in (("gl", 4, 4), ("gl", 5, 5), ("gl", 6, 6), ("osp", 8, 8))],
    "inertia": lambda: exactnum.inertia(SYMMETRIC),
    "mat_mul": lambda: [exactnum.mat_mul(SKEW[n], SKEW[n]) for n in (8, 12)],
    "alpha_pfaffian": lambda: exactnum.alpha_pfaffian(
        *exactnum.realified_diagonal_action(*DIAGONAL)),
    "fundamental_weights": lambda: [sympair.fundamental_weights(pair)
                                    for pair in sympair.builtin_pairs(1, 3)],
}


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_holds_no_memory_across_calls(name):
    kernel = KERNELS[name]
    gc.collect()
    kernel()
    tracemalloc.start()
    try:
        kernel()
        _, first = tracemalloc.get_traced_memory()
        for _ in range(CALLS):
            kernel()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - first <= TOLERANCE, f"{name}: peak grew {peak - first} bytes over {CALLS} calls"
