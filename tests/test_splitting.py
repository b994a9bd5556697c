import itertools

import pytest

from supervol import splitting
from supervol.splitting import (
    GL,
    Q,
    SL,
    RULE_FACTOR_SPLIT,
    RULE_LEVI_GL,
    RULE_LEVI_Q,
    RULE_ODD_PARTS_EQUAL,
    ChainStep,
    is_splitting_levi_gl,
    is_splitting_levi_q,
    minimal_chain,
    power,
    sdim_necessity,
    trivial,
)


def gl_dims(m, n):
    return (m * m + n * n, 2 * m * n)


def test_group_desc_normalization():
    assert GL(0, 0) == trivial()
    assert (GL(1, 1) * GL(0, 0)) == GL(1, 1)
    assert power(Q(2), 2) * Q(1) == Q(2) * Q(2) * Q(1)
    assert GL(2, 1).label() == "GL(2|1)"
    assert (power(GL(1, 1), 2) * GL(3, 0)).label() == "GL(1|1)^2×GL(3|0)"
    assert trivial().label() == "1"
    # a NamedTuple must not fall back to tuple concatenation or repetition
    for bad in (lambda: GL(1, 1) + Q(2), lambda: 3 * GL(1, 1)):
        with pytest.raises(TypeError):
            bad()


def test_group_dims():
    assert GL(3, 4).even_dim == 25 and GL(3, 4).odd_dim == 24
    assert Q(3).even_dim == 9 and Q(3).odd_dim == 9
    assert SL(1, 1).odd_dim == 2 and SL(1, 1).even_dim == 1
    assert trivial().odd_dim == 0


def test_is_splitting_levi_gl_examples():
    for m, n in ((2, 2), (5, 3), (1, 4)):
        check = is_splitting_levi_gl(1, 1, m, n)
        assert check.ok and check.evidence == 0
    check = is_splitting_levi_gl(2, 0, 3, 4)
    assert not check.ok and check.evidence == -6
    for m in range(3, 7):
        for n in range(1, m):
            assert is_splitting_levi_gl(n, n, m, n).ok
    with pytest.raises(ValueError):
        is_splitting_levi_gl(3, 0, 2, 2)


def test_is_splitting_levi_q_examples():
    for n in range(2, 12):
        assert is_splitting_levi_q(2, n).ok
    assert not is_splitting_levi_q(1, 2).ok
    assert is_splitting_levi_q(1, 3).ok
    assert is_splitting_levi_q(1, 2).evidence == 1
    with pytest.raises(ValueError):
        is_splitting_levi_q(3, 2)


def test_minimal_chain_gl21():
    chain = minimal_chain(GL(2, 1))
    groups = chain.groups()
    assert len(groups) == 4
    assert groups[0] == SL(1, 1)
    assert groups[-1] == GL(2, 1)
    assert chain.validate()
    rules = [step.rule for step in chain.steps]
    assert rules == [RULE_ODD_PARTS_EQUAL, RULE_FACTOR_SPLIT, RULE_LEVI_GL]
    for step in chain.steps:
        if step.rule == RULE_LEVI_GL:
            assert step.evidence["sdim"] == 0


def test_minimal_chain_gl_small_cases():
    chain = minimal_chain(GL(1, 1))
    assert chain.groups() == [SL(1, 1), GL(1, 1)]
    assert chain.validate()

    chain = minimal_chain(GL(2, 2))
    assert chain.bottom == power(SL(1, 1), 2)
    assert chain.validate()

    # purely even groups peel straight down to the trivial subgroup
    chain = minimal_chain(GL(3, 0))
    assert chain.groups() == [trivial(), GL(3, 0)]
    assert chain.steps[0].rule == RULE_ODD_PARTS_EQUAL
    assert chain.validate()

    assert minimal_chain(GL(0, 0)).groups() == [trivial()]
    assert minimal_chain(GL(0, 0)).validate()


def test_minimal_chain_gl_exhaustive():
    for m, n in itertools.product(range(6), repeat=2):
        chain = minimal_chain(GL(m, n))
        assert chain.validate()
        d = min(m, n)
        assert chain.bottom == power(SL(1, 1), d)
        for step in chain.steps:
            if step.rule == RULE_LEVI_GL:
                assert step.evidence["sdim"] == 0


def test_minimal_chain_q5():
    chain = minimal_chain(Q(5))
    assert chain.validate()
    assert chain.groups() == [Q(2) * Q(2) * Q(1), Q(2) * Q(3), Q(5)]
    assert [s.evidence["parity_product"] for s in chain.steps] == [2, 6]


def test_minimal_chain_q_small_and_exhaustive():
    assert minimal_chain(Q(2)).groups() == [Q(2)]
    assert minimal_chain(Q(1)).groups() == [Q(1)]
    for n in range(11):
        chain = minimal_chain(Q(n))
        assert chain.validate()
        d = n // 2
        expected = power(Q(2), d) * (Q(1) if n % 2 else trivial())
        assert chain.bottom == expected
        for step in chain.steps:
            assert step.evidence["parity_product"] % 2 == 0


def test_minimal_chain_rejects_other_families():
    with pytest.raises(ValueError, match="unsupported"):
        minimal_chain(SL(2, 1))
    with pytest.raises(ValueError, match="unsupported"):
        minimal_chain(GL(1, 1) * Q(2))


def test_chain_validation_catches_tampering():
    chain = minimal_chain(GL(3, 2))
    bad_steps = list(chain.steps)
    levi = next(i for i, s in enumerate(bad_steps) if s.rule == RULE_LEVI_GL)
    step = bad_steps[levi]
    bad_steps[levi] = ChainStep(step.sub, step.sup, step.rule,
                                dict(step.evidence, sdim=1))
    tampered = splitting.SubgroupChain(chain.top, tuple(bad_steps))
    assert not tampered.validate()

    # a Levi step whose criterion genuinely fails cannot certify
    bad = ChainStep(GL(2, 0) * GL(1, 4), GL(3, 4), RULE_LEVI_GL,
                    {"r": 2, "s": 0, "m": 3, "n": 4, "sdim": -6})
    assert not bad.validate()

    # equal odd dimensions do not make sub a subgroup of sup
    for sub, sup, odd_dim in ((GL(5, 0), GL(1, 0), 0), (SL(2, 1), GL(1, 2), 4)):
        forged = ChainStep(sub, sup, RULE_ODD_PARTS_EQUAL, {"odd_dim": odd_dim})
        assert sub.odd_dim == sup.odd_dim == odd_dim
        assert not forged.validate()
        assert not splitting.SubgroupChain(sup, (forged,)).validate()

    # nor can a Q Levi step with r(n-r) odd, whether its evidence states
    # that product or claims an even one
    for parity_product in (1, 2):
        forged = ChainStep(Q(1) * Q(1), Q(2), RULE_LEVI_Q,
                           {"r": 1, "n": 2, "parity_product": parity_product})
        assert not forged.validate()
        assert not splitting.SubgroupChain(Q(2), (forged,)).validate()

    # a factor split may drop only purely even factors, must name exactly
    # those, and keeps the rest of sup in order
    honest = ChainStep(GL(1, 1), GL(1, 1) * GL(2, 0), RULE_FACTOR_SPLIT,
                       {"removed": ["GL(2|0)"]})
    assert honest.validate()
    for sub, sup, removed in ((GL(2, 0), GL(1, 1) * GL(2, 0), ["GL(1|1)"]),
                              (GL(1, 1), GL(1, 1) * GL(2, 0), ["GL(3|0)"]),
                              (GL(1, 1), GL(1, 1) * GL(2, 0), []),
                              (GL(1, 1) * GL(3, 0), GL(1, 1) * GL(2, 0), ["GL(2|0)"])):
        forged = ChainStep(sub, sup, RULE_FACTOR_SPLIT, {"removed": removed})
        assert not forged.validate()
        assert not splitting.SubgroupChain(sup, (forged,)).validate()

    # a step under a rule that no validator knows certifies nothing
    for step in minimal_chain(GL(2, 1)).steps:
        assert step.validate()
        assert not step._replace(rule="LEVI_SL").validate()


def test_sdim_necessity_examples():
    assert sdim_necessity((5, 5), (5, 5))
    # gl(3|4) against the Levi gl(2|0) + gl(1|4): (25-21) - (24-8) < 0
    levi = (gl_dims(2, 0)[0] + gl_dims(1, 4)[0],
            gl_dims(2, 0)[1] + gl_dims(1, 4)[1])
    assert levi == (21, 8)
    assert not sdim_necessity(gl_dims(3, 4), levi)
    with pytest.raises(ValueError):
        sdim_necessity((1, 1), (2, 0))


def test_sdim_necessity_reproduces_grassmannian_sdim():
    from supervol.grassvol import GrassSpec, sdim
    for m, n in itertools.product(range(7), repeat=2):
        for r, s in itertools.product(range(m + 1), range(n + 1)):
            levi = (gl_dims(r, s)[0] + gl_dims(m - r, n - s)[0],
                    gl_dims(r, s)[1] + gl_dims(m - r, n - s)[1])
            assert (sdim_necessity(gl_dims(m, n), levi)
                    == (sdim(GrassSpec(r, s, m, n)) >= 0))


def test_chain_payload_shape():
    payload = minimal_chain(GL(3, 2)).to_payload()
    assert payload["top"] == "GL(3|2)"
    assert payload["bottom"] == "SL(1|1)^2"
    assert len(payload["steps"]) == len(payload["groups"]) - 1
    for step in payload["steps"]:
        assert set(step) == {"sub", "sup", "rule", "evidence"}


def test_constructors_refuse_non_int_parameters():
    for make, args in ((GL, (1.5, 2)), (SL, (1, 2.0)), (Q, (True,)), (GL, (False, 1))):
        with pytest.raises(TypeError, match="parameters must be ints"):
            make(*args)


def test_q_levi_criterion_refuses_non_int_parameters():
    for r, n in ((1.0, 3), (1, 3.0), (True, 3)):
        with pytest.raises(TypeError, match="^r and n must be ints"):
            is_splitting_levi_q(r, n)


def test_power_refuses_a_negative_or_non_int_exponent():
    with pytest.raises(ValueError, match="^the exponent must be >= 0, got -1$"):
        power(Q(2), -1)
    with pytest.raises(TypeError, match="^the exponent must be an int, got True$"):
        power(Q(2), True)
    assert power(Q(2), 0) == trivial()


def test_negative_factor_parameters_are_refused():
    for make, args in ((GL, (-1, 2)), (SL, (1, -2)), (Q, (-3,))):
        with pytest.raises(ValueError, match="^negative parameters$"):
            make(*args)

