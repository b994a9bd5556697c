import random
from fractions import Fraction

import pytest

from supervol import rootsys
from supervol.exactnum import form
from supervol.rootsys import (
    EVEN,
    ODD,
    build_root_system,
    defect,
    defect_subgroup_roots,
    inner,
    isotropic_roots,
    witt_index,
)


def coords_set(roots):
    return {r.coords for r in roots}


def test_gl11_two_odd_isotropic_roots():
    system = build_root_system("gl", 1, 1)
    assert len(system.roots) == 2
    assert all(r.parity == ODD for r in system.roots)
    assert all(inner(system, r.coords, r.coords) == 0 for r in system.roots)


def test_gl21_root_inventory():
    system = build_root_system("gl", 2, 1)
    assert len(system.roots) == 6
    evens = coords_set(r for r in system.roots if r.parity == EVEN)
    odds = coords_set(r for r in system.roots if r.parity == ODD)
    f = Fraction
    assert evens == {(f(1), f(-1), f(0)), (f(-1), f(1), f(0))}
    assert odds == {(f(1), f(0), f(-1)), (f(-1), f(0), f(1)),
                    (f(0), f(1), f(-1)), (f(0), f(-1), f(1))}


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
    assert all(inner(system, r.coords, r.coords) == 0 for r in odds)
    assert inner(system, (1, 1, 1), (1, 1, 1)) == 0


def test_inner_examples():
    gl11 = build_root_system("gl", 1, 1)
    assert inner(gl11, (1, -1), (1, -1)) == 0
    gl20 = build_root_system("gl", 2, 0)
    assert inner(gl20, (1, -1), (1, -1)) == 2
    with pytest.raises(ValueError, match="dimension"):
        inner(gl20, (1,), (1, 0))
    with pytest.raises(ValueError, match="dimension"):
        inner(gl20, (1, 0), (1, 0, 0))
    with pytest.raises(TypeError, match="exact"):
        inner(gl20, (1, 0.5), (1, 0))
    with pytest.raises(TypeError, match="exact"):
        inner(gl20, (1, 0), (0.0, 1))
    # zero coordinates are skipped; the value is the dense sum
    g3 = build_root_system("g3")
    for v, w in (((1, 0, 0), (0, 1, 0)), ((0, 2, 0), (1, 0, 3)),
                 ((Fraction(1, 2), 0, -1), (0, 0, 0)), ((3, -1, 2), (1, 1, Fraction(-1, 3)))):
        dense = sum(Fraction(v[i]) * g3.gram[i][j] * w[j]
                    for i in range(3) for j in range(3))
        assert inner(g3, v, w) == dense


def test_negation_closure():
    for family, params in (("gl", (2, 3)), ("osp", (3, 2)), ("osp", (4, 4)),
                           ("d21a", (Fraction(2),)), ("g3", ()), ("f4", ())):
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


def test_exhaustive_search_without_witt_stop(monkeypatch):
    """With the bound raised past the defect the search never stops early,
    so it runs exhaustively; it must still give the same answers."""
    expected = {("gl", (m, n)): min(m, n) for m in range(4) for n in range(4)}
    expected.update({("osp", (3, 2)): 1, ("g3", ()): 1})
    systems = {key: build_root_system(key[0], *key[1]) for key in expected}
    witnesses = {key: defect_subgroup_roots(system)
                 for key, system in systems.items() if expected[key]}
    bound = rootsys.witt_index
    monkeypatch.setattr(rootsys, "witt_index", lambda system: bound(system) + 1)
    for key, system in systems.items():
        assert defect(system) == expected[key], key
        if expected[key]:
            assert defect_subgroup_roots(system) == witnesses[key], key


def test_defect_search_node_budget(monkeypatch):
    monkeypatch.setattr(rootsys, "SEARCH_NODE_BUDGET", 1)
    with pytest.raises(ValueError, match=r"defect search on gl\(2, 2\) exceeded 1 nodes"):
        defect(build_root_system("gl", 2, 2))


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
        assert inner(system, v, v) == 0
        for w in chosen[i + 1:]:
            assert inner(system, v, w) == 0
    assert rootsys.rank(chosen) == len(chosen)


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


INTEGER_ROUTE_FAMILIES = (
    [(fam, (m, n)) for fam in ("gl", "sl") for m in range(5) for n in range(5)]
    + [("osp", key) for key in ((1, 2), (2, 2), (3, 2), (4, 2), (4, 4), (5, 4),
                                (6, 4), (6, 6), (8, 8))]
    + [("d21a", (alpha,)) for alpha in (Fraction(1), Fraction(2, 3), Fraction(-1, 2))]
    + [("g3", ()), ("f4", ())]
)


@pytest.mark.parametrize("family,params", INTEGER_ROUTE_FAMILIES)
def test_integer_defect_route_matches_exact_form(family, params):
    """The search scales the Gram matrix and the odd roots to integers;
    its answers must be those of the exact form on the original roots."""
    system = build_root_system(family, *params)
    assert isotropic_roots(system) == tuple(
        r for r in system.roots
        if r.parity == ODD and inner(system, r.coords, r.coords) == 0)
    if not isotropic_roots(system):
        return
    pairs = defect_subgroup_roots(system)
    assert len(pairs) == defect(system)
    chosen = [plus.coords for plus, _ in pairs]
    assert set(chosen) <= {r.coords for r in system.roots}
    for i, v in enumerate(chosen):
        for w in chosen[i:]:
            assert inner(system, v, w) == 0


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


def test_form_on_integers_matches_fraction_evaluation():
    rng = random.Random(41)
    for family, params in (("gl", (3, 2)), ("g3", ()), ("f4", ()), ("osp", (5, 4))):
        system = build_root_system(family, *params)
        dim = system.dim
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
