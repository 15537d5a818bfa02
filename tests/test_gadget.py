import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resoplus._bits import parity, string_to_bits
from resoplus.blocks import BlockLayout
from helpers import constant_gadget, random_space
from resoplus.f2 import EMPTY, EnumerationCapError, FVec, enumerate_points, full_space, space_from_pairs
from resoplus.gadget import (
    SYNDROME_DIM_CAP,
    EmptyPreimageError,
    EmptySupportError,
    Gadget,
    LiftedDistribution,
    count_in_space,
    count_preimages,
    counts_in_space,
    ip_gadget,
    lift_cnf,
    lift_eval,
    max_fourier,
    parity_gadget,
    preimages,
    sample_in_space,
    sample_lifted,
    walsh_spectrum,
    _fwht_inplace,
    _pick,
)
from resoplus.cnf import Cnf
from resoplus.oracles import eval_bits, parseval_holds, rejection_sample_lifted, walsh_spectrum_direct


def coeff(spectrum, mask):
    return Fraction(spectrum.numerators[mask], spectrum.denominator)


def test_spectrum_examples():
    s = walsh_spectrum(constant_gadget(3, 0))
    assert coeff(s, 0) == 1
    assert all(coeff(s, m) == 0 for m in range(1, 8))

    s = walsh_spectrum(parity_gadget(2))
    assert coeff(s, 0b11) == 1
    assert all(coeff(s, m) == 0 for m in range(3))

    s = walsh_spectrum(ip_gadget(2))
    assert all(abs(coeff(s, m)) == Fraction(1, 2) for m in range(4))


def test_parseval_holds_for_random_gadgets():
    rng = random.Random(4)
    for _ in range(60):
        b = rng.randint(1, 6)
        g = Gadget(b, tuple(rng.getrandbits(1) for _ in range(1 << b)))
        assert parseval_holds(walsh_spectrum(g))


def test_fast_transform_matches_direct_summation():
    rng = random.Random(8)
    for _ in range(40):
        b = rng.randint(1, 6)
        g = Gadget(b, tuple(rng.getrandbits(1) for _ in range(1 << b)))
        assert walsh_spectrum(g).numerators == walsh_spectrum_direct(g).numerators


def test_vectorised_fwht_matches_direct_summation():
    rng = random.Random(12)
    for b in range(7):
        for _ in range(6):
            g = Gadget(b, tuple(rng.getrandbits(1) for _ in range(1 << b)))
            vals = np.array([1 - 2 * t for t in g.table], dtype=np.int64)
            _fwht_inplace(vals)
            assert vals.tolist() == list(walsh_spectrum_direct(g).numerators)


@pytest.mark.parametrize("b", [2, 4, 6, 8])
def test_ip_is_bent(b):
    s = walsh_spectrum(ip_gadget(b))
    want = Fraction(1, 1 << (b // 2))
    assert all(abs(coeff(s, m)) == want for m in range(1 << b))
    assert max_fourier(ip_gadget(b)) == want


def test_max_fourier_examples():
    assert max_fourier(ip_gadget(2)) == Fraction(1, 2)
    assert max_fourier(ip_gadget(8)) == Fraction(1, 16)
    assert max_fourier(constant_gadget(3, 1)) == 1


def test_ip_gadget_table():
    g = ip_gadget(2)
    assert g.table == (0, 0, 0, 1)
    g4 = ip_gadget(4)
    assert g4.table[0b1111] == 0  # 1*1 + 1*1
    assert len(g4.preimage(1)) == 6
    assert g4.preimage(0) == tuple(v for v in range(16) if g4.table[v] == 0)
    assert all(type(v) is int for v in g4.preimage(1))
    with pytest.raises(ValueError):
        ip_gadget(3)


def test_gadget_file_round_trip():
    g = ip_gadget(4)
    assert Gadget.from_text(g.to_text()) == g


def test_lift_eval():
    lay = BlockLayout(2, 2)
    g = ip_gadget(2)
    assert lift_eval(g, lay, FVec(4, string_to_bits("1101"))).to_string() == "10"
    assert lift_eval(g, lay, FVec(4, 0)).bits == 0
    lay1 = BlockLayout(1, 2)
    for v in range(4):
        assert lift_eval(g, lay1, FVec(2, v)).bits == g.table[v]


def test_preimages():
    g = ip_gadget(2)
    lay1 = BlockLayout(1, 2)
    assert list(preimages(g, lay1, FVec(1, 1))) == [0b11]
    lay = BlockLayout(2, 2)
    pts = list(preimages(g, lay, FVec(2, string_to_bits("10"))))
    assert len(pts) == 3 == count_preimages(g, lay, FVec(2, string_to_bits("10")))
    partial = list(preimages(g, lay, {1: 0}))
    assert len(partial) == 3 and all(p >> 2 == 0 for p in partial)
    with pytest.raises(EmptyPreimageError):
        next(preimages(constant_gadget(2, 0), lay1, FVec(1, 1)))


def test_count_in_space_matches_enumeration():
    rng = random.Random(5)
    for _ in range(200):
        n, b = rng.randint(1, 3), rng.choice([1, 2, 4])
        lay = BlockLayout(n, b)
        g = Gadget(b, tuple(rng.getrandbits(1) for _ in range(1 << b)))
        sp = random_space(lay.width, rng.randint(0, 3), rng)
        if sp is EMPTY:
            continue
        z = FVec(n, rng.getrandbits(n))
        brute = sum(1 for p in enumerate_points(sp) if lift_eval(g, lay, p) == z)
        assert count_in_space(sp, lay, g, z) == brute


def test_count_in_space_caps_cross_block_rows_only():
    # a chain x_i + x_{i+1} over b=1 blocks: every row crosses two blocks
    lay = BlockLayout(SYNDROME_DIM_CAP + 2, 1)
    g = parity_gadget(1)
    rows = [((1 << i) | (1 << (i + 1)), 0) for i in range(SYNDROME_DIM_CAP + 1)]
    sp = space_from_pairs(lay.width, rows)
    with pytest.raises(EnumerationCapError):
        count_in_space(sp, lay, g, FVec(lay.n, 0))
    # the same number of single-block rows is folded into the candidates
    unit = space_from_pairs(lay.width, [(1 << i, 0) for i in range(SYNDROME_DIM_CAP + 1)])
    assert count_in_space(unit, lay, g, FVec(lay.n, 0)) == 1
    assert count_in_space(unit, lay, g, FVec(lay.n, 1 << (lay.n - 1))) == 1
    assert count_in_space(unit, lay, g, FVec(lay.n, 1)) == 0
    # the sampler reads the same block tables, so it has the same cap
    rng = random.Random(0)
    with pytest.raises(EnumerationCapError):
        sample_in_space(sp, lay, g, FVec(lay.n, 0), rng)
    assert sample_in_space(unit, lay, g, FVec(lay.n, 0), rng) == FVec(lay.width, 0)
    assert sample_in_space(unit, lay, g, 1 << (lay.n - 1), rng) == FVec(lay.width, 1 << (lay.n - 1))


def test_sample_in_space_on_an_all_local_codim_24_space():
    # 24 unit rows on 2 x IP_12 fix a single point; every row is local, so m = 0
    lay, g = BlockLayout(2, 12), ip_gadget(12)
    rng = random.Random(24)
    x0 = rng.getrandbits(lay.width)
    space = space_from_pairs(lay.width, [(1 << j, (x0 >> j) & 1) for j in range(lay.width)])
    assert space.codim == 24
    z = lift_eval(g, lay, FVec(lay.width, x0))
    assert sample_in_space(space, lay, g, z, rng) == FVec(lay.width, x0)
    assert sample_in_space(space, lay, g, {1: z.get(1)}, rng) == FVec(lay.width, x0)
    with pytest.raises(EmptySupportError):
        sample_in_space(space, lay, g, z.bits ^ 1, rng)


def _brute_count(space, lay, g, target) -> int:
    if isinstance(target, int):
        target = FVec(lay.n, target)
    fixed = dict(target) if isinstance(target, dict) else {i: target.get(i) for i in range(lay.n)}
    total = 0
    for p in enumerate_points(space):
        if all(g.table[lay.block_value(p.bits, i)] == bit for i, bit in fixed.items()):
            total += 1
    return total


@st.composite
def counting_instances(draw):
    """A layout (n <= 3, b <= 4), an IP or random gadget, a space mixing local and cross rows, targets."""
    n, b = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3, 4]))
    lay = BlockLayout(n, b)
    if b % 2 == 0 and draw(st.booleans()):
        g = ip_gadget(b)
    else:
        g = Gadget(b, tuple(draw(st.lists(st.integers(0, 1), min_size=1 << b, max_size=1 << b))))
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            blk = draw(st.integers(0, n - 1))
            form = draw(st.integers(1, (1 << b) - 1)) << (blk * b)
        else:
            form = draw(st.integers(1, (1 << lay.width) - 1))
        pairs.append((form, draw(st.integers(0, 1))))
    space = space_from_pairs(lay.width, pairs)
    targets = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["fvec", "int", "mapping"]))
        if kind == "fvec":
            targets.append(FVec(n, draw(st.integers(0, (1 << n) - 1))))
        elif kind == "int":
            targets.append(draw(st.integers(0, (1 << n) - 1)))
        else:
            blocks = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
            targets.append({i: draw(st.integers(0, 1)) for i in blocks})
    return lay, g, space, targets


@settings(max_examples=300, deadline=None, database=None)
@given(counting_instances())
def test_counts_in_space_matches_enumeration(instance):
    lay, g, space, targets = instance
    counts = counts_in_space(space, lay, g, targets)
    if space is EMPTY:
        assert counts == [0] * len(targets)
        return
    assert counts == [_brute_count(space, lay, g, z) for z in targets]
    assert counts == [count_in_space(space, lay, g, z) for z in targets]
    # a full target counts as the mapping that fixes every block
    full = [z for z in targets if isinstance(z, FVec)]
    assert counts_in_space(space, lay, g, full) == counts_in_space(
        space, lay, g, [{i: z.get(i) for i in range(lay.n)} for z in full]
    )
    # a bare int full target counts as the FVec of the same bits
    assert counts_in_space(space, lay, g, [z.bits for z in full]) == counts_in_space(space, lay, g, full)


def test_counts_in_space_rejects_a_full_target_of_another_width():
    with pytest.raises(ValueError):
        counts_in_space(full_space(4), BlockLayout(2, 2), ip_gadget(2), [FVec(2, 0), FVec(3, 0)])


@pytest.mark.parametrize("targets", [[0, 0b100], [0b11, -1], [0b100, {}]])
def test_counts_in_space_rejects_an_int_target_out_of_range(targets):
    with pytest.raises(ValueError):
        counts_in_space(full_space(4), BlockLayout(2, 2), ip_gadget(2), targets)


def test_empty_space_checks_layout_and_targets_first():
    lay, rng = BlockLayout(2, 2), random.Random(0)
    assert counts_in_space(EMPTY, lay, ip_gadget(2), [0, FVec(2, 3), {1: 0}]) == [0, 0, 0]
    with pytest.raises(ValueError):
        count_in_space(EMPTY, lay, ip_gadget(4), FVec(2, 0))
    with pytest.raises(ValueError):
        count_in_space(EMPTY, lay, ip_gadget(2), FVec(3, 0))
    with pytest.raises(ValueError):
        sample_in_space(EMPTY, lay, ip_gadget(4), 0, rng)
    with pytest.raises(ValueError):
        sample_in_space(EMPTY, lay, ip_gadget(2), {2: 0}, rng)
    with pytest.raises(EmptySupportError):
        sample_in_space(EMPTY, lay, ip_gadget(2), 0, rng)


@pytest.mark.parametrize("space", [EMPTY, full_space(4)])
def test_an_int_target_out_of_range_has_one_message(space):
    lay, g = BlockLayout(2, 2), ip_gadget(2)
    with pytest.raises(ValueError, match="target out of range for the number of blocks"):
        counts_in_space(space, lay, g, [0b100])
    with pytest.raises(ValueError, match="target out of range for the number of blocks"):
        sample_in_space(space, lay, g, 0b100, random.Random(0))
    with pytest.raises(ValueError, match="target out of range for the number of blocks"):
        count_preimages(g, lay, -1)


def test_counts_in_space_past_62_bits_is_exact():
    # n=17 blocks of IP_4 (68 bits, like the lifted 17-cycle); the cross rows
    # touch blocks 0-2 only, so the count is (blocks 0-2 by enumeration) x
    # (the other blocks' candidate counts)
    n, b = 17, 4
    lay, g = BlockLayout(n, b), ip_gadget(4)
    rng = random.Random(62)
    pairs = [(rng.getrandbits(3 * b) | (1 << rng.randrange(b)) | (1 << (2 * b + rng.randrange(b))), rng.getrandbits(1))
             for _ in range(4)]
    pairs.append((0b0110 << b, 1))  # one local row in block 1
    space = space_from_pairs(lay.width, pairs)
    head = space_from_pairs(3 * b, pairs)
    targets = [FVec(n, rng.getrandbits(n)) for _ in range(20)] + [{0: 1, 5: 0}, {}]
    want = []
    for z in targets:
        fixed = dict(z) if isinstance(z, dict) else {i: z.get(i) for i in range(n)}
        tail = math.prod(len(g.preimage(fixed[i])) if i in fixed else 1 << b for i in range(3, n))
        want.append(_brute_count(head, BlockLayout(3, b), g, {i: bit for i, bit in fixed.items() if i < 3}) * tail)
    # the unconstrained target's count does not fit in int64
    assert want[-1] == head.size() << (b * (n - 3)) >= 1 << 63
    assert counts_in_space(space, lay, g, targets) == want


def test_counts_in_space_rejects_a_gadget_of_another_arity():
    with pytest.raises(ValueError):
        counts_in_space(full_space(4), BlockLayout(2, 2), ip_gadget(4), [FVec(2, 0)])


def _seeded_draws() -> str:
    """Digest of 100 sample_in_space and 100 sample_lifted draws on seeded spaces through a known point."""
    rng = random.Random(20261018)
    draws = []
    for t in range(200):
        n, b = rng.randint(1, 4), rng.choice([2, 4])
        if t % 50 == 49:
            n, b = 17, 4  # 68 bits: the counts leave int64
        lay = BlockLayout(n, b)
        g = ip_gadget(b) if t % 3 else Gadget(b, (0, 1) + tuple(rng.getrandbits(1) for _ in range((1 << b) - 2)))
        x0 = rng.getrandbits(lay.width)
        pairs = []
        for _ in range(rng.randint(0, 4)):
            blk = rng.randrange(n)
            form = rng.getrandbits(lay.width) if rng.getrandbits(1) else rng.randrange(1, 1 << b) << (blk * b)
            pairs.append((form, bin(form & x0).count("1") & 1))
        space = space_from_pairs(lay.width, pairs)
        z = lift_eval(g, lay, FVec(lay.width, x0))
        if t < 100:
            target = z if t % 2 else {i: z.get(i) for i in range(n) if rng.getrandbits(1)}
            x = sample_in_space(space, lay, g, target, rng)
        else:
            others = [rng.getrandbits(n) for _ in range(rng.randint(0, 3))]
            base = tuple((zb, rng.randint(1, 3)) for zb in [z.bits] + others)
            x = sample_lifted(LiftedDistribution(lay, g, base), space, rng)
        draws.append(f"{lay.width}:{x.bits:x}")
    return hashlib.sha256(",".join(draws).encode()).hexdigest()[:16]


@st.composite
def unconditioned_lifts(draw):
    """A lifted distribution over IP_2, IP_4 or a random gadget with both classes nonempty."""
    b = draw(st.integers(1, 4))
    random_gadget = st.lists(st.integers(0, 1), min_size=1 << b, max_size=1 << b).filter(
        lambda t: 0 < sum(t) < len(t)
    ).map(lambda t: Gadget(b, tuple(t)))
    g = draw(st.one_of(st.just(ip_gadget(2)), st.just(ip_gadget(4)), random_gadget))
    lay = BlockLayout(draw(st.integers(0, 8)), g.b)
    point = st.tuples(st.integers(0, (1 << lay.n) - 1), st.integers(1, 4))
    return LiftedDistribution(lay, g, tuple(draw(st.lists(point, min_size=1, max_size=6))))


@settings(max_examples=200, deadline=None, database=None)
@given(unconditioned_lifts(), st.integers(0, 2**32 - 1))
def test_unconditioned_draw_is_the_full_space_sampler_draw_for_draw(d, seed):
    # the closed form must consume the stream exactly as the full-space sampler does
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(4):
        x = sample_lifted(d, None, fast)
        z = d.base[_pick(d.totals, slow)][0]
        assert x == sample_in_space(full_space(d.layout.width), d.layout, d.gadget, z, slow)
        assert fast.getstate() == slow.getstate()


def test_seeded_draws_are_pinned():
    # recorded with the earlier sampler, which combined the per-block tables by direct XOR-convolution
    assert _seeded_draws() == "c1c69fd05c52985e"


def _sample_over_every_row(space, lay, g, target, rng) -> FVec:
    """The sampler as it was: every row of the space, local or not, is a
    syndrome bit, each block's table runs over the whole class of z_i, and the
    suffix tables are direct XOR-convolutions."""
    if space is EMPTY:
        raise EmptySupportError("empty space")
    if isinstance(target, int):
        target = FVec(lay.n, target)
    fixed = dict(target) if isinstance(target, dict) else {i: target.get(i) for i in range(lay.n)}
    size = 1 << space.codim
    blocks = []  # per block: its candidate values, ascending, and their syndromes
    for i in range(lay.n):
        values = [v for v in range(1 << lay.b) if i not in fixed or g.table[v] == fixed[i]]
        syn = [sum(parity(lay.block_value(form, i) & v) << j for j, (form, _) in enumerate(space.rows)) for v in values]
        blocks.append((values, syn))
    counts = [[syn.count(s) for s in range(size)] for _, syn in blocks]
    suffix = [[1] + [0] * (size - 1)]
    for i in reversed(range(lay.n)):
        after = suffix[0]
        suffix.insert(0, [sum(counts[i][s] * after[t ^ s] for s in range(size)) for t in range(size)])
    need = sum(bit << j for j, (_, bit) in enumerate(space.rows))
    if suffix[0][need] == 0:
        raise EmptySupportError("no point matches")
    bits = 0
    for i, (values, syn) in enumerate(blocks):
        weights = [counts[i][s] * suffix[i + 1][need ^ s] for s in range(size)]
        pick = rng.randrange(sum(weights))
        s = 0
        while pick >= weights[s]:
            pick -= weights[s]
            s += 1
        members = [v for v, t in zip(values, syn) if t == s]
        bits |= members[rng.randrange(len(members))] << (i * lay.b)
        need ^= s
    return FVec(lay.width, bits)


@st.composite
def sampling_instances(draw):
    """2-3 blocks of b <= 4, a space of local and cross-block rows (EMPTY at times), 1-4 targets."""
    n, b = draw(st.integers(2, 3)), draw(st.sampled_from([1, 2, 3, 4]))
    lay = BlockLayout(n, b)
    g = _gadgets(draw, b)
    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        first, last = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        form = draw(st.integers(1, (1 << b) - 1)) << (first * b)
        if draw(st.booleans()):  # a cross row: a bit in a later block too, and any bits below it
            below = draw(st.integers(0, (1 << (last * b)) - 1))
            form |= (1 << (last * b + draw(st.integers(0, b - 1)))) | below
        pairs.append((form, draw(st.integers(0, 1))))
    space = space_from_pairs(lay.width, pairs)
    targets = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["fvec", "int", "mapping"]))
        if kind == "mapping":
            blocks = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
            targets.append({i: draw(st.integers(0, 1)) for i in blocks})
        else:
            bits = draw(st.integers(0, (1 << n) - 1))
            targets.append(FVec(n, bits) if kind == "fvec" else bits)
    return lay, g, space, targets


@settings(max_examples=300, deadline=None, database=None)
@given(sampling_instances(), st.integers(0, 2**32))
def test_sample_in_space_matches_the_every_row_sampler_draw_for_draw(instance, seed):
    # local rows only filter their block's candidates, so the draws that
    # carry weight keep their order, weights and member lists
    lay, g, space, targets = instance
    for z in targets:
        rng1, rng2 = random.Random(seed), random.Random(seed)
        for _ in range(3):
            try:
                want = _sample_over_every_row(space, lay, g, z, rng2)
            except EmptySupportError:
                with pytest.raises(EmptySupportError):
                    sample_in_space(space, lay, g, z, rng1)
                break
            assert sample_in_space(space, lay, g, z, rng1) == want
        assert rng1.random() == rng2.random()


def test_sample_in_space_uniform():
    lay = BlockLayout(1, 2)
    g = ip_gadget(2)
    rng = random.Random(0)
    counts = Counter(sample_in_space(full_space(2), lay, g, FVec(1, 0), rng).bits for _ in range(4000))
    assert set(counts) == {0b00, 0b01, 0b10}
    # 4000 draws over 3 preimages: 1333 +- 130
    assert all(1203 <= v <= 1463 for v in counts.values())


def test_sample_lifted_matches_preimage_counting():
    # frequencies within 4 sigma over 10^4 draws, unconditioned
    lay = BlockLayout(2, 2)
    g = ip_gadget(2)
    dist = LiftedDistribution(lay, g, ((0b01, 1), (0b11, 1)))
    rng = random.Random(9)
    draws = 10_000
    counts = Counter(sample_lifted(dist, None, rng).bits for _ in range(draws))
    support = {}
    for z_bits, _ in dist.base:
        for p in preimages(g, lay, FVec(2, z_bits)):
            # z drawn uniformly between the two base points, then uniform in the fiber
            support[p] = Fraction(1, 2) * Fraction(1, count_preimages(g, lay, FVec(2, z_bits)))
    assert set(counts) <= set(support)
    for bits, prob in support.items():
        mean = draws * float(prob)
        sigma = (draws * float(prob) * (1 - float(prob))) ** 0.5
        assert abs(counts.get(bits, 0) - mean) <= 4 * sigma


def test_sample_lifted_conditioned():
    lay = BlockLayout(2, 2)
    g = ip_gadget(2)
    dist = LiftedDistribution(lay, g, ((0b00, 1),))
    # condition on the first block's first bit being 1
    cond = space_from_pairs(4, [(1, 1)])
    rng = random.Random(3)
    for _ in range(200):
        x = sample_lifted(dist, cond, rng)
        assert x.bits & 1 == 1
        assert lift_eval(g, lay, x).bits == 0
    # contradictory conditioning: force block 0 to the unique preimage of 1
    bad = space_from_pairs(4, [(0b0001, 1), (0b0010, 1)])
    with pytest.raises(EmptySupportError):
        sample_lifted(dist, bad, rng)


def test_lift_cnf_clause_count_formula():
    # lifted clause count is the sum over base clauses of the product of the
    # falsifying-value preimage sizes
    from resoplus.tseitin import complete_graph, tseitin_cnf

    g = ip_gadget(2)
    base = tseitin_cnf(complete_graph(5)).cnf
    lifted = lift_cnf(base, g)
    expected = 0
    for clause in base.clauses:
        prod = 1
        for lit in clause:
            prod *= len(g.preimage(1 if lit < 0 else 0))
        expected += prod
    assert len(lifted.clauses) == expected == 680
    assert lifted.num_vars == 20
    assert lifted.to_dimacs().splitlines()[0] == "p cnf 20 680"


def _gadgets(draw, b: int) -> Gadget:
    """IP_b (fibres of unequal size for b >= 4) or a random table, possibly constant."""
    if b % 2 == 0 and draw(st.booleans()):
        return ip_gadget(b)
    return Gadget(b, tuple(draw(st.lists(st.integers(0, 1), min_size=1 << b, max_size=1 << b))))


@st.composite
def lifted_distributions(draw):
    """n <= 4 blocks of b in {1, 2, 4}, 1-5 base points with weights 1-5."""
    n, b = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 4]))
    lay = BlockLayout(n, b)
    points = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5))
    base = tuple((z, draw(st.integers(1, 5))) for z in points)
    return LiftedDistribution(lay, _gadgets(draw, b), base)


@settings(max_examples=200, deadline=None, database=None)
@given(lifted_distributions(), st.integers(0, 2**32))
def test_unconditioned_sample_lifted_matches_full_space_conditioning(dist, seed):
    # the unconditioned path skips counting; conditioning on the whole space
    # counts every fibre and must make the same draws from the same stream
    rng1, rng2 = random.Random(seed), random.Random(seed)
    whole = full_space(dist.layout.width)
    for _ in range(8):
        try:
            x = sample_lifted(dist, None, rng1)
        except EmptyPreimageError:
            with pytest.raises(EmptyPreimageError):
                sample_lifted(dist, whole, rng2)
            return
        assert x == sample_lifted(dist, whole, rng2)
    assert rng1.random() == rng2.random()


@st.composite
def preimage_targets(draw):
    n, b = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 4]))
    lay = BlockLayout(n, b)
    if draw(st.booleans()):
        z = FVec(n, draw(st.integers(0, (1 << n) - 1)))
    else:
        blocks = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        z = {i: draw(st.integers(0, 1)) for i in blocks}
    return lay, _gadgets(draw, b), z


@settings(max_examples=300, deadline=None, database=None)
@given(preimage_targets())
def test_count_preimages_matches_enumeration(instance):
    lay, g, z = instance
    try:
        listed = len(list(preimages(g, lay, z)))
    except EmptyPreimageError:
        listed = 0
    assert count_preimages(g, lay, z) == listed


def test_count_preimages_reads_each_class_size():
    # IP_4 has 10 preimages of 0 and 6 of 1
    lay = BlockLayout(3, 4)
    g = ip_gadget(4)
    assert count_preimages(g, lay, FVec(3, 0b011)) == 10 * 6 * 6
    assert count_preimages(g, lay, {0: 0, 2: 0}) == 10 * 10
    assert count_preimages(g, lay, {}) == 1
    assert count_preimages(constant_gadget(4, 1), lay, FVec(3, 0b101)) == 0


def test_exact_sampler_matches_rejection_oracle():
    # non-uniform base weights and unequal fiber sizes, nontrivial conditioning
    lay = BlockLayout(2, 2)
    g = ip_gadget(2)
    dist = LiftedDistribution(lay, g, ((0b00, 1), (0b10, 2)))
    cond = space_from_pairs(4, [(0b0011, 1)])
    rng1, rng2 = random.Random(1), random.Random(2)
    draws = 20_000
    exact = Counter(sample_lifted(dist, cond, rng1).bits for _ in range(draws))
    oracle = Counter(rejection_sample_lifted(dist, cond, rng2).bits for _ in range(draws))
    assert set(exact) == set(oracle)
    for bits in exact:
        p1, p2 = exact[bits] / draws, oracle[bits] / draws
        sigma = (p2 * (1 - p2) / draws) ** 0.5
        assert abs(p1 - p2) <= 5 * max(sigma, 1e-4)


def test_lift_cnf_counts_and_semantics():
    g = ip_gadget(2)
    base = Cnf(1, ((1,),))
    lifted = lift_cnf(base, g)
    # falsifying value 0 has three preimages
    assert len(lifted.clauses) == 3 and lifted.num_vars == 2
    assert lift_cnf(Cnf(0, ()), g).clauses == ()

    base = Cnf(2, ((1, -2), (2,)))
    lifted = lift_cnf(base, g)
    lay = BlockLayout(2, 2)
    for xb in range(16):
        zb = lift_eval(g, lay, FVec(4, xb)).bits
        assert eval_bits(lifted, xb) == eval_bits(base, zb)

    with pytest.raises(EmptyPreimageError):
        lift_cnf(Cnf(1, ((1,),)), constant_gadget(2, 1))


def _lift_by_product(phi, g):
    """Oracle: each clause's falsifying preimages by a product over its variables."""
    out = []
    for clause in phi.clauses:
        alpha = {abs(lit): int(lit < 0) for lit in clause}
        per_var = [g.preimage(alpha[v]) for v in sorted(alpha)]
        for choice in itertools.product(*per_var):
            lits = []
            for v, a in zip(sorted(alpha), choice):
                for j in range(g.b):
                    var = (v - 1) * g.b + j + 1
                    lits.append(-var if (a >> j) & 1 else var)
            out.append(tuple(lits))
    return Cnf(phi.num_vars * g.b, tuple(out))


@st.composite
def cnfs_and_gadgets(draw):
    n, b = draw(st.integers(0, 4)), draw(st.sampled_from([1, 2, 4]))
    clauses = []
    for _ in range(draw(st.integers(0, 4)) if n else 0):
        chosen = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
        clauses.append(tuple(v if draw(st.booleans()) else -v for v in chosen))
    return Cnf(n, tuple(clauses)), _gadgets(draw, b)


@settings(max_examples=200, deadline=None, database=None)
@given(cnfs_and_gadgets())
def test_lift_cnf_matches_the_product_oracle(case):
    phi, g = case
    if any(not g.preimage(int(lit < 0)) for clause in phi.clauses for lit in clause):
        with pytest.raises(EmptyPreimageError):
            lift_cnf(phi, g)
        return
    assert lift_cnf(phi, g) == _lift_by_product(phi, g)


def test_lift_cnf_counts_its_clauses_before_writing_them(monkeypatch):
    # 4^11 = 2^22 lifted clauses of one width-11 clause exceed the 2^20 cap
    wide = Cnf(11, (tuple(-v for v in range(1, 12)),))
    with pytest.raises(ValueError, match="^lifting writes 4194304 clauses, above cap 1048576$"):
        lift_cnf(wide, constant_gadget(2, 1))
    # a class the gadget lacks is named first, even after a clause past the cap
    with pytest.raises(EmptyPreimageError, match="^gadget has no preimage of 0$"):
        lift_cnf(Cnf(11, wide.clauses + ((1,),)), constant_gadget(2, 1))
    with pytest.raises(ValueError, match="^clause repeats a variable$"):
        lift_cnf(Cnf(2, ((1, -1),)), ip_gadget(2))
    # the counts of all clauses add up (IP_2: 3 * 3 + 1 * 1), and the cap itself is allowed
    pair = Cnf(2, ((1, 2), (-1, -2)))
    monkeypatch.setattr("resoplus.gadget._LIFT_CLAUSE_CAP", 10)
    assert len(lift_cnf(pair, ip_gadget(2)).clauses) == 10
    monkeypatch.setattr("resoplus.gadget._LIFT_CLAUSE_CAP", 9)
    with pytest.raises(ValueError, match="^lifting writes 10 clauses, above cap 9$"):
        lift_cnf(pair, ip_gadget(2))


@pytest.mark.parametrize("make", [parity_gadget, ip_gadget])
def test_gadgets_past_the_spectrum_cap_are_rejected_before_building(make):
    # 2^40 table entries would never finish; the check runs first
    with pytest.raises(ValueError, match="^arity 40 exceeds spectrum cap 24$"):
        make(40)
