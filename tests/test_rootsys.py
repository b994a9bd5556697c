import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from supervol import cli, exactnum, rootsys
from supervol.exactnum import form
from supervol.rootsys import (
    EVEN,
    ODD,
    build_root_system,
    defect,
    defect_subgroup_roots,
    isotropic_roots,
    witt_index,
)


DATA = Path(__file__).parent / "data"


def coords_set(roots):
    return {r.coords for r in roots}


def test_gl11_two_odd_isotropic_roots():
    system = build_root_system("gl", 1, 1)
    assert len(system.roots) == 2
    assert all(r.parity == ODD for r in system.roots)
    assert all(form(system.gram, r.coords, r.coords) == 0 for r in system.roots)


def test_gl21_root_inventory():
    system = build_root_system("gl", 2, 1)
    assert len(system.roots) == 6
    evens = coords_set(r for r in system.roots if r.parity == EVEN)
    odds = coords_set(r for r in system.roots if r.parity == ODD)
    f = Fraction
    assert evens == {(f(1), f(-1), f(0)), (f(-1), f(1), f(0))}
    assert odds == {(f(1), f(0), f(-1)), (f(-1), f(0), f(1)),
                    (f(0), f(1), f(-1)), (f(0), f(-1), f(1))}


def vec(dim, *entries):
    """The weight with coordinate c at index i for each (i, c) in entries."""
    v = [Fraction(0)] * dim
    for i, c in entries:
        v[i] = Fraction(c)
    return tuple(v)


def positive_roots(family, params):
    """(coords, parity) of the positive roots, written out family by family."""
    h = Fraction(1, 2)
    if family in ("gl", "sl"):
        m, n = params
        return [(vec(m + n, (i, 1), (j, -1)), EVEN if (i < m) == (j < m) else ODD)
                for i, j in itertools.combinations(range(m + n), 2)]
    if family == "osp":
        m, n = params[0] // 2, params[1] // 2
        dim = m + n
        pos = [(vec(dim, (i, 1), (j, t)), EVEN if (i < m) == (j < m) else ODD)
               for i, j in itertools.combinations(range(dim), 2) for t in (1, -1)]
        pos += [(vec(dim, (k, 2)), EVEN) for k in range(m, dim)]
        if params[0] % 2:
            pos += [(vec(dim, (i, 1)), EVEN if i < m else ODD) for i in range(dim)]
        return pos
    if family == "d21a":
        return ([(vec(3, (i, 2)), EVEN) for i in range(3)]
                + [(vec(3, (0, 1), (1, s), (2, t)), ODD) for s in (1, -1) for t in (1, -1)])
    if family == "g3":
        evens = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (1, -1, 0), (2, 1, 0), (1, 2, 0), (0, 0, 2)]
        odds = [(0, 0, 1), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1), (-1, -1, 1),
                (-1, -1, -1)]
        return ([(vec(3, *enumerate(c)), EVEN) for c in evens]
                + [(vec(3, *enumerate(c)), ODD) for c in odds])
    if family == "f4":
        pos = [(vec(4, (i, 1), (j, t)), EVEN)
               for i, j in itertools.combinations(range(3), 2) for t in (1, -1)]
        pos += [(vec(4, (i, 1)), EVEN) for i in range(4)]
        return pos + [(vec(4, (0, h), (1, a * h), (2, b * h), (3, c * h)), ODD)
                      for a, b, c in itertools.product((1, -1), repeat=3)]
    raise ValueError(family)


@pytest.mark.parametrize("family,params,count", [
    ("gl", (2, 3), 20), ("sl", (3, 2), 20), ("osp", (4, 2), 14), ("osp", (5, 4), 36),
    ("d21a", (Fraction(2, 3),), 14), ("g3", (), 28), ("f4", (), 36), ("gl", (6, 6), 132),
])
def test_root_inventory_is_positive_roots_and_their_negatives(family, params, count):
    pos = positive_roots(family, params)
    expected = {(c, p) for c, p in pos} | {(tuple(-x for x in c), p) for c, p in pos}
    roots = build_root_system(family, *params).roots
    assert len(roots) == len(expected) == count
    assert {(r.coords, r.parity) for r in roots} == expected


def test_d21a_root_counts():
    system = build_root_system("d21a", Fraction(1, 2))
    evens = [r for r in system.roots if r.parity == EVEN]
    odds = [r for r in system.roots if r.parity == ODD]
    assert len(evens) == 6 and len(odds) == 8
    assert coords_set(evens) == {
        tuple(Fraction(2 if i == j else 0) * s for j in range(3))
        for i in range(3) for s in (1, -1)
    }


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(1, 2), Fraction(-3),
                                   Fraction(7, 5), Fraction(-1, 4)])
def test_d21a_odd_roots_isotropic_for_any_alpha(alpha):
    system = build_root_system("d21a", alpha)
    odds = [r for r in system.roots if r.parity == ODD]
    assert len(odds) == 8
    assert all(form(system.gram, r.coords, r.coords) == 0 for r in odds)
    assert form(system.gram, (1, 1, 1), (1, 1, 1)) == 0


def test_inner_examples():
    gl11 = build_root_system("gl", 1, 1)
    assert form(gl11.gram, (1, -1), (1, -1)) == 0
    gl20 = build_root_system("gl", 2, 0)
    assert form(gl20.gram, (1, -1), (1, -1)) == 2
    with pytest.raises(ValueError, match="dimension"):
        form(gl20.gram, (1,), (1, 0))
    with pytest.raises(ValueError, match="dimension"):
        form(gl20.gram, (1, 0), (1, 0, 0))
    with pytest.raises(TypeError, match="exact"):
        form(gl20.gram, (1, 0.5), (1, 0))
    with pytest.raises(TypeError, match="exact"):
        form(gl20.gram, (1, 0), (0.0, 1))
    # zero coordinates are skipped; the value is the dense sum
    g3 = build_root_system("g3")
    for v, w in (((1, 0, 0), (0, 1, 0)), ((0, 2, 0), (1, 0, 3)),
                 ((Fraction(1, 2), 0, -1), (0, 0, 0)), ((3, -1, 2), (1, 1, Fraction(-1, 3)))):
        dense = sum(Fraction(v[i]) * g3.gram[i][j] * w[j]
                    for i in range(3) for j in range(3))
        assert form(g3.gram, v, w) == dense


def test_negation_closure():
    # every gl system that verify's root-invariant sweep reads, then the others
    gl = [("gl", mn) for mn in itertools.product(range(5), repeat=2)]
    for family, params in gl + [("osp", (3, 2)), ("osp", (4, 4)),
                                ("d21a", (Fraction(2),)), ("g3", ()), ("f4", ())]:
        system = build_root_system(family, *params)
        cs = coords_set(system.roots)
        assert cs == {tuple(-c for c in v) for v in cs}
        assert all(any(c != 0 for c in r.coords) for r in system.roots)
    root = system.roots[0]
    assert (-root).coords == tuple(-c for c in root.coords)
    # a NamedTuple must not fall back to tuple concatenation or repetition
    for bad in (lambda: root + root, lambda: root * 2, lambda: 2 * root):
        with pytest.raises(TypeError):
            bad()


def test_isotropic_roots_gl():
    for m, n in ((1, 1), (2, 2), (3, 1)):
        system = build_root_system("gl", m, n)
        iso = isotropic_roots(system)
        assert len(iso) == 2 * m * n
        assert all(r.parity == ODD for r in iso)
    assert isotropic_roots(build_root_system("gl", 3, 0)) == ()


def test_isotropic_roots_osp32():
    system = build_root_system("osp", 3, 2)
    iso = coords_set(isotropic_roots(system))
    f = Fraction
    assert iso == {(f(1), f(1)), (f(1), f(-1)), (f(-1), f(1)), (f(-1), f(-1))}
    # the odd non-isotropic roots +-delta are excluded
    odd = coords_set(r for r in system.roots if r.parity == ODD)
    assert (f(0), f(1)) in odd and (f(0), f(1)) not in iso


def test_defect_exceptional_families():
    assert defect(build_root_system("osp", 3, 2)) == 1
    assert defect(build_root_system("osp", 2, 2)) == 1
    assert defect(build_root_system("g3")) == 1
    assert defect(build_root_system("f4")) == 1
    for alpha in (Fraction(1), Fraction(1, 2), Fraction(-3)):
        assert defect(build_root_system("d21a", alpha)) == 1


def test_defect_search_order_invariance():
    rng = random.Random(5)
    system = build_root_system("gl", 3, 3)
    for _ in range(5):
        roots = list(system.roots)
        rng.shuffle(roots)
        shuffled = rootsys.RootSystem(system.family, system.params,
                                      system.gram, tuple(roots))
        assert defect(shuffled) == 3
        assert defect_subgroup_roots(shuffled) == defect_subgroup_roots(system)


WITT_FAMILIES = (
    [("gl", (m, n)) for m in range(5) for n in range(5)]
    + [("osp", (3, 2)), ("osp", (2, 2)), ("d21a", (Fraction(1),)),
       ("d21a", (Fraction(1, 2),)), ("d21a", (Fraction(-3),)), ("g3", ()),
       ("f4", ()), ("osp", (8, 8)), ("sl", (3, 2))]
)


@pytest.mark.parametrize("family,params", WITT_FAMILIES)
def test_defect_attains_witt_index(family, params):
    system = build_root_system(family, *params)
    assert witt_index(system) == defect(system)


ORACLE_FAMILIES = (
    [(fam, (m, n)) for fam in ("gl", "sl") for m in range(4) for n in range(4)]
    + [("osp", (3, 2)), ("osp", (4, 4)), ("osp", (5, 4)), ("g3", ()), ("f4", ())]
    + [("d21a", (alpha,)) for alpha in (Fraction(1), Fraction(1, 2), Fraction(-3))]
)


def independent(vectors) -> bool:
    """Linear independence by a nonzero Gram determinant det(V * V^T)."""
    return exactnum.det(exactnum.mat_mul(vectors, list(zip(*vectors)))) != 0


def brute_force_defect(system) -> int:
    """Size of the largest mutually orthogonal, linearly independent subset
    of the isotropic roots, one per pair {a, -a}, by trying every subset
    from the largest down and testing it with the exact form."""
    reps = []
    for r in system.roots:
        if (r.parity == ODD and form(system.gram, r.coords, r.coords) == 0
                and tuple(-c for c in r.coords) not in reps):
            reps.append(r.coords)
    for size in range(len(reps), 0, -1):
        for subset in itertools.combinations(reps, size):
            if (all(form(system.gram, v, w) == 0 for v, w in itertools.combinations(subset, 2))
                    and independent(subset)):
                return size
    return 0


def test_defect_matches_brute_force_oracle():
    """The greedy pass against an exhaustive search that knows no Witt bound."""
    for family, params in ORACLE_FAMILIES:
        system = build_root_system(family, *params)
        assert defect(system) == brute_force_defect(system), (family, params)


def test_defect_subgroup_roots_gl22_diagonal():
    system = build_root_system("gl", 2, 2)
    pairs = defect_subgroup_roots(system)
    f = Fraction
    assert [p.coords for p, _ in pairs] == [
        (f(1), f(0), f(-1), f(0)), (f(0), f(1), f(0), f(-1))]
    for plus, minus in pairs:
        assert minus.coords == tuple(-c for c in plus.coords)


def test_defect_subgroup_roots_small_cases():
    gl11 = build_root_system("gl", 1, 1)
    [(plus, minus)] = defect_subgroup_roots(gl11)
    assert plus.coords == (Fraction(1), Fraction(-1))
    assert len(defect_subgroup_roots(build_root_system("osp", 2, 2))) == 1
    with pytest.raises(ValueError, match="no isotropic roots"):
        defect_subgroup_roots(build_root_system("gl", 2, 0))


def test_defect_subgroup_roots_are_orthogonal_isotropic():
    system = build_root_system("gl", 4, 3)
    pairs = defect_subgroup_roots(system)
    assert len(pairs) == 3
    chosen = [p.coords for p, _ in pairs]
    for i, v in enumerate(chosen):
        assert form(system.gram, v, v) == 0
        for w in chosen[i + 1:]:
            assert form(system.gram, v, w) == 0
    assert independent(chosen)


def test_invalid_families_and_params():
    for family, params in (("e8", ()), ("q", (3,))):
        with pytest.raises(ValueError, match="unknown family"):
            build_root_system(family, *params)
    with pytest.raises(ValueError):
        build_root_system("gl", -1, 2)
    with pytest.raises(ValueError):
        build_root_system("osp", 3, 3)  # odd symplectic part
    with pytest.raises(ValueError, match="alpha"):
        build_root_system("d21a", 0)
    with pytest.raises(ValueError, match="alpha"):
        build_root_system("d21a", -1)


def test_arity_errors_name_the_expected_parameters():
    for params in ((), (1, 2)):
        with pytest.raises(ValueError, match="^d21a requires the form parameter alpha$"):
            build_root_system("d21a", *params)
    with pytest.raises(ValueError, match="^g3 takes no parameters$"):
        build_root_system("g3", 1)
    with pytest.raises(ValueError, match="^f4 takes no parameters$"):
        build_root_system("f4", 1)


def test_gl_and_osp_refuse_bool_parameters():
    for family, params in (("gl", (True, 2)), ("sl", (1, False)), ("osp", (True, 2))):
        with pytest.raises(ValueError, match="requires integers"):
            build_root_system(family, *params)


INTEGER_ROUTE_FAMILIES = (
    [(fam, (m, n)) for fam in ("gl", "sl") for m in range(5) for n in range(5)]
    + [("osp", key) for key in ((1, 2), (2, 2), (3, 2), (4, 2), (4, 4), (5, 4),
                                (6, 4), (6, 6), (8, 8))]
    + [("d21a", (alpha,)) for alpha in (Fraction(1), Fraction(2, 3), Fraction(-1, 2))]
    + [("g3", ()), ("f4", ())]
)


@pytest.mark.parametrize("family,params", INTEGER_ROUTE_FAMILIES)
def test_integer_defect_route_matches_exact_form(family, params):
    """The defect pass scales the Gram matrix and the odd roots to integers;
    its answers must be those of the exact form on the original roots."""
    system = build_root_system(family, *params)
    assert isotropic_roots(system) == tuple(
        r for r in system.roots
        if r.parity == ODD and form(system.gram, r.coords, r.coords) == 0)
    if not isotropic_roots(system):
        return
    pairs = defect_subgroup_roots(system)
    assert len(pairs) == defect(system)
    chosen = [plus.coords for plus, _ in pairs]
    assert set(chosen) <= {r.coords for r in system.roots}
    for i, v in enumerate(chosen):
        for w in chosen[i:]:
            assert form(system.gram, v, w) == 0


def test_osp_defect_closed_form():
    """osp(M|2n) has defect min(M // 2, n): a second route on the grid M, 2n <= 8."""
    cases = [(big_m, two_n) for big_m in range(9) for two_n in range(0, 9, 2)]
    assert len(cases) == 45
    for big_m, two_n in cases:
        assert defect(build_root_system("osp", big_m, two_n)) == min(big_m // 2, two_n // 2), \
            (big_m, two_n)


def test_defect_pass_renders_no_dense_coordinates(monkeypatch):
    """With ``Root.coords`` refusing to render, every family builds and its
    defect pass gives the same answers: the pass reads only the supports."""
    def answers():
        for family, params in INTEGER_ROUTE_FAMILIES:
            system = build_root_system(family, *params)
            iso = isotropic_roots(system)
            yield iso, defect(system), defect_subgroup_roots(system) if iso else []

    expected = list(answers())

    def refuse(root):
        raise AssertionError("dense coordinates rendered")

    monkeypatch.setattr(rootsys.Root, "coords", property(refuse))
    with pytest.raises(AssertionError, match="dense"):
        build_root_system("gl", 1, 1).roots[0].coords
    assert list(answers()) == expected


def test_greedy_pass_rejects_a_dependent_orthogonal_root():
    # on the form (+1^3, -1^3), a = e0 + e3 and b = e1 + e4 are isotropic and
    # orthogonal, and so is their sum c, which the canonical order puts
    # first: the pass keeps c and a, must reject b = c - a, and keeps d
    gram = build_root_system("gl", 3, 3).gram

    def root(*positions):
        return rootsys.Root(tuple((i, 1) for i in positions), ODD, 6, 1)

    a, b, c, d = root(0, 3), root(1, 4), root(0, 1, 3, 4), root(2, 5)
    system = rootsys.RootSystem("gl", (3, 3), gram, (a, b, c, d, -a, -b, -c, -d))
    assert witt_index(system) == 3
    assert [plus for plus, _ in defect_subgroup_roots(system)] == [c, a, d]
    assert independent([c.coords, a.coords, d.coords])
    assert not independent([c.coords, a.coords, b.coords])


@pytest.mark.parametrize("family,params", INTEGER_ROUTE_FAMILIES)
def test_supports_are_sorted_nonzero_and_render_the_coordinates(family, params):
    system = build_root_system(family, *params)
    dim = len(system.gram)
    assert rootsys.Root._fields == ("support", "parity", "dim", "den")
    for r in system.roots:
        positions = [i for i, _ in r.support]
        assert positions == sorted(set(positions)) and 0 <= positions[0] <= positions[-1] < dim
        assert all(type(c) is int and c != 0 for _, c in r.support)
        assert r.dim == dim and r.den == (2 if family == "f4" else 1)
        coords = r.coords
        assert [(i, x) for i, x in enumerate(coords) if x] == [
            (i, Fraction(c, r.den)) for i, c in r.support]
        assert (-r).coords == tuple(-x for x in coords)
        assert (-r).parity == r.parity and -(-r) == r


def test_defect_witnesses_literal():
    f = Fraction
    h = Fraction(1, 2)
    expected = {
        ("gl", (2, 3)): [(1, 0, -1, 0, 0), (0, 1, 0, -1, 0)],
        ("d21a", (f(1, 2),)): [(1, -1, -1)],
        ("osp", (5, 4)): [(1, 0, -1, 0), (0, 1, 0, -1)],
        ("f4", ()): [(h, -h, -h, -h)],
    }
    for (family, params), coords in expected.items():
        pairs = defect_subgroup_roots(build_root_system(family, *params))
        assert [plus.coords for plus, _ in pairs] == [tuple(map(f, c)) for c in coords]
        assert all(isinstance(x, Fraction) for plus, minus in pairs
                   for x in plus.coords + minus.coords)


WITNESS_CASES = (
    [(fam, (m, n)) for fam in ("gl", "sl") for m in range(7) for n in range(7)]
    + [case for case in INTEGER_ROUTE_FAMILIES if case[0] == "osp"]
    + [("d21a", (Fraction(x),)) for x in ("1", "1/2", "2/3", "-1/2", "-3")]
    + [("g3", ()), ("f4", ())]
)


def defect_witness_lines() -> str:
    """Per case, the ``defect --format json`` line, then a line with the
    coordinates of the ``defect_subgroup_roots`` witnesses."""
    out = io.StringIO()
    for family, params in WITNESS_CASES:
        args = [str(p) for p in params]
        with contextlib.redirect_stdout(out):
            # "--" lets a negative alpha through as a parameter
            assert cli.main(["defect", "--format", "json", family, "--", *args]) == 0
        system = build_root_system(family, *params)
        pairs = defect_subgroup_roots(system) if isotropic_roots(system) else []
        witnesses = [[str(x) for x in plus.coords] for plus, _ in pairs]
        out.write(json.dumps({"family": family, "params": args, "witnesses": witnesses}) + "\n")
    return out.getvalue()


def test_defect_witnesses_match_the_recorded_output():
    assert defect_witness_lines() == (DATA / "defect_witnesses.jsonl").read_text()


@pytest.mark.parametrize("family,params", [
    ("gl", (3, 2)), ("sl", (2, 3)), ("gl", (0, 2)), ("osp", (3, 2)), ("osp", (5, 4)),
    ("osp", (4, 6)), ("d21a", (2,)), ("d21a", ("-1/2",)), ("g3", ()), ("f4", ()),
])
def test_builders_make_fractions_only(family, params):
    # the Gram entries and the rendered coordinates are Fractions; none is an int
    system = build_root_system(family, *params)
    assert all(type(x) is Fraction for row in system.gram for x in row)
    assert all(type(x) is Fraction for r in system.roots for x in r.coords)


def test_defect_pass_calls_no_public_form(monkeypatch):
    # the pass evaluates the form on integer supports through the kernel
    # itself; the public, validating ``form`` would scan dense vectors
    calls = []
    real = exactnum.form

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (exactnum, rootsys):
        if hasattr(module, "form"):
            monkeypatch.setattr(module, "form", counted)
    system = build_root_system("gl", 6, 6)
    assert defect(system) == 6 and len(defect_subgroup_roots(system)) == 6
    assert calls == []


def test_form_on_integers_matches_fraction_evaluation():
    rng = random.Random(41)
    for family, params in (("gl", (3, 2)), ("g3", ()), ("f4", ()), ("osp", (5, 4))):
        system = build_root_system(family, *params)
        dim = len(system.gram)
        int_gram = [[int(x) for x in row] for row in system.gram]
        for _ in range(20):
            v = [rng.randint(-3, 3) for _ in range(dim)]
            w = [rng.choice((0, 0, 1, -2, 5)) for _ in range(dim)]
            value = form(int_gram, v, w)
            assert type(value) is int
            assert value == form(system.gram, [Fraction(x) for x in v],
                                 [Fraction(x) for x in w])
    with pytest.raises(TypeError, match="exact"):
        form([[1, 0], [0, 1]], (1, 0.5), (1, 0))
    with pytest.raises(TypeError, match="exact"):
        form([[1, 0], [0, 1]], (1, 0), (2.0, 1))
