import random
from fractions import Fraction

import pytest

from helpers import constant_gadget
from resoplus import lemmalab
from resoplus._bits import parity
from resoplus.blocks import BlockLayout, ClosureAssignment, closure
from resoplus.f2 import FVec, full_space, space_from_pairs
from resoplus.gadget import SYNDROME_DIM_CAP, Gadget, count_in_space, count_preimages, ip_gadget, lift_eval
from resoplus.lemmalab import (
    INCONCLUSIVE,
    OK,
    VACUOUS_OK,
    ErrorBudget,
    UnsafeSpaceError,
    check_conditional_fooling,
    check_exponential_sum,
    check_uniform_coset,
    closure_law_suite,
    counterexample_demo,
    nested_pair_with_gap,
    random_safe_space,
)
from resoplus.oracles import cube_counts, eta_by_summation

# most unit-level checks run at b=8 to stay quick; the acceptance suite
# exercises the full b=12 scale.  The checks count by syndrome counting;
# cube_counts, the full-cube sweep, is the oracle the tests below compare with.


def test_error_budget_matches_summation():
    for n in range(1, 7):
        for maxcoeff in (Fraction(1, 64), Fraction(1, 16), Fraction(1, 2)):
            eb = ErrorBudget(n, 12, maxcoeff)
            assert eb.eta == eta_by_summation(n, maxcoeff)
    assert ErrorBudget(2, 12, Fraction(1, 64)).eta == Fraction(65, 1024)


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _single_block_rows(space, lay) -> int:
    return sum(len({i for i in range(lay.n) if f & lay.block_mask(i)}) == 1 for f in space.forms())


def _mixed_space(lay, rng):
    """A non-empty space whose rows mix single-block and cross-block forms."""
    x0 = rng.getrandbits(lay.width)
    pairs = []
    for _ in range(rng.randint(0, lay.width)):
        if rng.random() < 0.6:
            form = rng.getrandbits(lay.b) << (lay.b * rng.randrange(lay.n))
        else:
            form = rng.getrandbits(lay.width)
        pairs.append((form, _parity(form & x0)))
    return space_from_pairs(lay.width, pairs)


def test_cube_counts_against_per_block_counting():
    # single-block rows are folded into the candidates, cross-block rows form the syndrome
    rng = random.Random(21)
    single = cross = 0
    for _ in range(120):
        n, b = rng.choice([1, 2, 3]), rng.choice([2, 4, 6])
        lay = BlockLayout(n, b)
        g = ip_gadget(b) if rng.random() < 0.5 else Gadget(b, tuple(rng.getrandbits(1) for _ in range(1 << b)))
        sp = _mixed_space(lay, rng)
        z = FVec(n, rng.getrandbits(n))
        gz, (cnt,) = cube_counts(lay, g, z, [sp])
        assert cnt == count_in_space(sp, lay, g, z)
        assert gz == count_preimages(g, lay, z)
        local = _single_block_rows(sp, lay)
        single += local
        cross += sp.codim - local
    assert single > 0 and cross > 0


def test_folded_counting_past_the_syndrome_cap_matches_cube_sweep():
    # 21 single-block rows (more than the syndrome cap) and 2 cross-block rows
    lay = BlockLayout(4, 6)
    g = ip_gadget(6)
    x0 = random.Random(22).getrandbits(lay.width)
    c1, c2, c3 = lay.flat(1, 0), lay.flat(2, 3), lay.flat(3, 5)
    local = [(1 << c, (x0 >> c) & 1) for c in range(lay.width) if c not in (c1, c2, c3)]
    forms = [(1 << c1) | (1 << c2), (1 << c2) | (1 << c3)]
    sp = space_from_pairs(lay.width, local + [(f, _parity(f & x0)) for f in forms])
    assert _single_block_rows(sp, lay) == SYNDROME_DIM_CAP + 1 and sp.codim == SYNDROME_DIM_CAP + 3
    z = lift_eval(g, lay, FVec(lay.width, x0))
    _, (cnt,) = cube_counts(lay, g, z, [sp])
    assert cnt > 0
    assert cnt == count_in_space(sp, lay, g, z)


def _closure_fixed(space, lay, y):
    """space ∩ {x : x agrees with y on y's blocks}."""
    pins = [
        (1 << lay.flat(blk, j), (y.value(blk) >> j) & 1) for blk in sorted(y.blocks) for j in range(lay.b)
    ]
    return space_from_pairs(lay.width, list(space.rows) + pins)


def test_lemma_reports_match_cube_sweep_counts():
    rng = random.Random(23)
    for n in (1, 2, 3):
        for b in (2, 4, 6):
            lay = BlockLayout(n, b)
            g = ip_gadget(b)
            for _ in range(3):
                sp = random_safe_space(lay, rng.randint(0, n), rng)
                z = FVec(n, rng.getrandbits(n))
                gz, (cnt,) = cube_counts(lay, g, z, [sp])
                assert check_exponential_sum(sp, lay, g, z).probability == Fraction(cnt, 1 << lay.width)
                assert check_uniform_coset(sp, lay, g, z).probability == Fraction(cnt, gz)
            for k, base in ((1, 0), (1, 1), (n, 0)):
                a, b_sp, y, z = nested_pair_with_gap(lay, g, k, min(base, n - k), rng)
                rep = check_conditional_fooling(b_sp, a, lay, g, y, z, k)
                _, (cnt_a, cnt_b) = cube_counts(lay, g, z, [_closure_fixed(a, lay, y), _closure_fixed(b_sp, lay, y)])
                assert dict(rep.params)["count_A"] == str(cnt_a)
                assert rep.probability == (Fraction(cnt_b, cnt_a) if cnt_a else 0)
            rep = counterexample_demo(n, g)
            t, j = rep.base_point, rep.sensitive_coord
            pins_a = [(1 << lay.flat(i, jj), (t >> jj) & 1) for i in range(n) for jj in range(b) if jj != j]
            pins_b = [(1 << lay.flat(i, j), (t >> j) & 1) for i in range(n)]
            a = space_from_pairs(lay.width, pins_a)
            b_sp = space_from_pairs(lay.width, pins_a + pins_b)
            z = FVec(n, (1 << n) - 1 if rep.target_bit else 0)
            _, (cnt_a, cnt_b) = cube_counts(lay, g, z, [a, b_sp])
            assert rep.conditional_probability == Fraction(cnt_b, cnt_a)


def test_exponential_sum_full_space():
    lay = BlockLayout(2, 8)
    g = ip_gadget(8)
    rep = check_exponential_sum(full_space(16), lay, g, FVec(2, 0b01))
    assert rep.verdict == OK
    assert rep.probability.denominator <= 1 << 16


def test_exponential_sum_cross_block_form():
    lay = BlockLayout(2, 8)
    g = ip_gadget(8)
    sp = space_from_pairs(16, [((1 << 0) | (1 << 8), 1)])
    rep = check_exponential_sum(sp, lay, g, FVec(2, 0b11))
    assert rep.verdict == OK


def test_exponential_sum_rejects_unsafe():
    lay = BlockLayout(2, 2)
    g = ip_gadget(2)
    bad = space_from_pairs(4, [(0b0001, 0), (0b0010, 0)])
    with pytest.raises(UnsafeSpaceError):
        check_exponential_sum(bad, lay, g, FVec(2, 0))


def test_uniform_coset_full_space_probability_one():
    lay = BlockLayout(2, 8)
    g = ip_gadget(8)
    rep = check_uniform_coset(full_space(16), lay, g, FVec(2, 0b10))
    assert rep.probability == 1 and rep.verdict == OK


def test_uniform_coset_inconclusive_at_small_arity():
    lay = BlockLayout(2, 4)
    g = ip_gadget(4)
    sp = random_safe_space(lay, 2, random.Random(1))
    rep = check_uniform_coset(sp, lay, g, FVec(2, 0b11))
    # eta = (1 + 2 * 1/4)^2 - 1 = 5/4 >= 1
    assert rep.verdict == INCONCLUSIVE


def test_uniform_coset_random_safe_spaces():
    lay = BlockLayout(2, 8)
    g = ip_gadget(8)
    rng = random.Random(4)
    for _ in range(6):
        sp = random_safe_space(lay, rng.randint(0, 2), rng)
        rep = check_uniform_coset(sp, lay, g, FVec(2, rng.getrandbits(2)))
        assert rep.verdict == OK, rep.to_text()


def test_safe_space_codim_is_bounded_by_block_count():
    lay = BlockLayout(2, 8)
    with pytest.raises(ValueError):
        random_safe_space(lay, 3, random.Random(0))


def test_fooling_nice_subspaces_finite_scale():
    # safe nested pair with unit codim gap: conditional probability within
    # (1/2)(1+eta)/(1-eta), checked directly from cube counts
    lay = BlockLayout(2, 8)
    g = ip_gadget(8)
    rng = random.Random(6)
    eta = ErrorBudget.for_gadget(g, 2).eta
    step = Fraction(1, 2) * (1 + eta) / (1 - eta)
    checked = 0
    while checked < 8:
        x0 = rng.getrandbits(16)
        f1 = rng.getrandbits(16)
        f2_ = rng.getrandbits(16)
        a = space_from_pairs(16, [(f1, parity(f1 & x0))])
        b_sp = space_from_pairs(16, [(f1, parity(f1 & x0)), (f2_, parity(f2_ & x0))])
        from resoplus.blocks import is_safe

        if a.codim != 1 or b_sp.codim != 2:
            continue
        if not (is_safe(a.forms(), lay) and is_safe(b_sp.forms(), lay)):
            continue
        z = FVec(2, rng.getrandbits(2))
        _, (cnt_a, cnt_b) = cube_counts(lay, g, z, [a, b_sp])
        if cnt_a == 0:
            continue
        assert Fraction(cnt_b, cnt_a) <= step
        checked += 1


def test_conditional_fooling_b8():
    lay = BlockLayout(2, 8)
    g = ip_gadget(8)
    rng = random.Random(3)
    for k, base in [(1, 0), (1, 1), (2, 0)]:
        a, b_sp, y, z = nested_pair_with_gap(lay, g, k, base, rng)
        rep = check_conditional_fooling(b_sp, a, lay, g, y, z, k)
        assert rep.verdict == OK, rep.to_text()


def test_conditional_fooling_with_closure_conditioning():
    lay = BlockLayout(2, 8)
    g = ip_gadget(8)
    rng = random.Random(14)
    a, b_sp, y, z = nested_pair_with_gap(lay, g, 1, 3, rng, concentrate_block=0)
    assert closure(a.forms(), lay) == frozenset({0})
    rep = check_conditional_fooling(b_sp, a, lay, g, y, z, 1)
    assert rep.verdict == OK
    assert dict(rep.params)["cl_A"] == "0"


def test_conditional_fooling_k_zero_is_trivial():
    lay = BlockLayout(2, 8)
    g = ip_gadget(8)
    a = full_space(16)
    y = ClosureAssignment.from_dict(lay, {})
    rep = check_conditional_fooling(a, a, lay, g, y, FVec(2, 0), 0)
    assert rep.probability == 1 and rep.verdict == OK
    assert rep.bound_high == 1


def test_conditional_fooling_validates_gap():
    lay = BlockLayout(2, 8)
    g = ip_gadget(8)
    rng = random.Random(5)
    a, b_sp, y, z = nested_pair_with_gap(lay, g, 1, 0, rng)
    with pytest.raises(ValueError):
        check_conditional_fooling(b_sp, a, lay, g, y, z, 2)


@pytest.mark.parametrize("k", [-1, 3])
def test_nested_pair_rejects_a_gap_outside_the_blocks(k):
    # read past, k = -1 drew 2,000 witnesses and then raised a RuntimeError
    rng = random.Random(5)
    with pytest.raises(ValueError, match=f"^an amortized gap of {k} cannot fit in 2 blocks$"):
        nested_pair_with_gap(BlockLayout(2, 8), ip_gadget(8), k, 0, rng)
    assert rng.getstate() == random.Random(5).getstate()  # rejected before any draw


def test_nested_pair_with_gap_zero():
    lay, g = BlockLayout(2, 8), ip_gadget(8)
    a, b_sp, y, z = nested_pair_with_gap(lay, g, 0, 1, random.Random(5))
    assert check_conditional_fooling(b_sp, a, lay, g, y, z, 0).verdict == OK


def test_counterexample_demo():
    rep = counterexample_demo(2, ip_gadget(4))
    assert rep.ok
    assert rep.conditional_probability == 1
    assert not rep.a_is_safe
    assert rep.codim_b == rep.codim_a + 2
    assert rep.uniform_on_a_probability == Fraction(1, 4)
    # b=2 degenerates to a safe space but the probability collapse remains
    rep2 = counterexample_demo(2, ip_gadget(2))
    assert rep2.ok and rep2.a_is_safe


def test_counterexample_needs_a_sensitive_coordinate():
    from resoplus.lemmalab import NoSensitiveCoordinateError

    with pytest.raises(NoSensitiveCoordinateError):
        counterexample_demo(2, constant_gadget(3, 0))


def test_closure_law_suite_small():
    rep = closure_law_suite(200, 11)
    assert rep.ok, rep.to_text()
    assert dict(rep.checked)["containment"] == 200


def test_closure_law_suite_counts_only_the_rewrites_it_checks():
    # span invariance rewrites one row by another, so a trial that draws fewer than two rows checks none
    counts = dict(closure_law_suite(200, 11).checked)
    assert 0 < counts.pop("span-invariance") < 200
    assert counts == dict.fromkeys(["augmentation", "containment", "continuity", "monotonicity", "oracle-agreement"], 200)


def test_closure_law_suite_draws_every_layout_size(monkeypatch):
    # the report counts instances per law, which does not show the layouts drawn
    drawn = []

    def recording_layout(n, b):
        drawn.append((n, b))
        return BlockLayout(n, b)

    monkeypatch.setattr(lemmalab, "BlockLayout", recording_layout)
    assert closure_law_suite(200, 11).ok
    assert {n for n, _ in drawn} == {1, 2, 3, 4}
    assert {b for _, b in drawn} == {1, 2, 3}


def test_cube_sweep_agrees_with_syndrome_counting_at_headline_scale():
    # the two independent counting routes must coincide at n=2, b=12
    lay = BlockLayout(2, 12)
    g = ip_gadget(12)
    rng = random.Random(8)
    sp = random_safe_space(lay, 2, rng)
    z = FVec(2, 0b01)
    gz, (cnt,) = cube_counts(lay, g, z, [sp])
    assert cnt == count_in_space(sp, lay, g, z)
    from resoplus.gadget import count_preimages

    assert gz == count_preimages(g, lay, z)


def test_reports_are_exact_rationals():
    lay = BlockLayout(2, 8)
    g = ip_gadget(8)
    rep = check_exponential_sum(full_space(16), lay, g, FVec(2, 0))
    assert isinstance(rep.probability, Fraction)
    assert isinstance(rep.bound_low, Fraction) and isinstance(rep.bound_high, Fraction)
    csv = rep.to_csv()
    assert csv.splitlines()[0].startswith("lemma,")
