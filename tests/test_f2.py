import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import intersect_space, random_space
from resoplus._bits import parity, string_to_bits
from resoplus.blocks import BlockLayout
from resoplus.cnf import Cnf, find_model
from resoplus.f2 import (
    EMPTY,
    ENUMERATION_CAP,
    AffineSpace,
    EnumerationCapError,
    EmptySpaceError,
    FVec,
    cube_chunks,
    enumerate_points,
    full_space,
    _inserted_rows,
    _rows_are_inserted,
    is_subspace,
    points_array,
    rank_of_rows,
    space_from_pairs,
)
from resoplus.gadget import parity_gadget
from resoplus.oracles import cube_counts, sample_point


def test_rank_identity_and_dependent_rows():
    assert rank_of_rows([0b001, 0b010, 0b100]) == 3
    # third row is the xor of the first two
    assert rank_of_rows([0b011, 0b110, 0b101]) == 2
    assert rank_of_rows([]) == 0


def test_rank_invariant_under_row_rewrites():
    rng = random.Random(0)
    for _ in range(300):
        w = rng.randint(1, 12)
        rows = [rng.getrandbits(w) for _ in range(rng.randint(1, 6))]
        r = rank_of_rows(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank_of_rows(shuffled) == r
        if len(rows) >= 2:
            i, j = rng.sample(range(len(rows)), 2)
            rewritten = rows[:]
            rewritten[i] ^= rewritten[j]
            assert rank_of_rows(rewritten) == r


def test_affine_from_equations():
    assert space_from_pairs(4, [(0b0011, 0), (0b0011, 1)]) is EMPTY
    s = space_from_pairs(3, [(0b001, 1)])
    assert s.size() == 4 and s.codim == 1
    assert full_space(2).size() == 4
    with pytest.raises(ValueError):
        space_from_pairs(3, [(0b1000, 0)])


def test_intersect():
    a = full_space(2)
    a1 = a.with_equation(0b01, 0)
    assert a1.codim == 1 and a1.size() == 2
    # redundant constraint leaves the space unchanged
    assert a1.with_equation(0b01, 0) == a1
    assert a1.with_equation(0b01, 1) is EMPTY


def test_intersect_codim_grows_by_at_most_one():
    rng = random.Random(1)
    for _ in range(200):
        w = rng.randint(1, 10)
        sp = random_space(w, rng.randint(0, w), rng)
        if sp is EMPTY:
            continue
        form = rng.getrandbits(w)
        bit = rng.getrandbits(1)
        out = sp.with_equation(form, bit)
        if out is not EMPTY:
            assert out.codim in (sp.codim, sp.codim + 1)
            for p in enumerate_points(out):
                assert sp.contains(p.bits)
                if form:
                    assert parity(form & p.bits) == bit


def test_enumerate_points_examples():
    s = space_from_pairs(2, [(0b11, 1)])
    assert sorted(p.to_string() for p in enumerate_points(s)) == ["01", "10"]
    assert len(list(enumerate_points(full_space(3)))) == 8
    assert list(enumerate_points(EMPTY)) == []


def test_enumerate_cap():
    with pytest.raises(EnumerationCapError):
        list(enumerate_points(full_space(30)))
    # every exhaustive sweep has the one cap, checked before any point is made
    wide = ENUMERATION_CAP + 1
    with pytest.raises(EnumerationCapError):
        cube_chunks(wide)
    with pytest.raises(EnumerationCapError):
        find_model(Cnf(wide, ()))
    with pytest.raises(EnumerationCapError):
        cube_counts(BlockLayout(9, 3), parity_gadget(3), FVec(9, 0), [])


def test_enumeration_counts_match_rank_on_random_systems():
    rng = random.Random(7)
    consistent = 0
    for _ in range(1000):
        w = rng.randint(1, 12)
        forms = [rng.getrandbits(w) for _ in range(rng.randint(0, 6))]
        rhs = rng.getrandbits(len(forms)) if forms else 0
        sp = space_from_pairs(w, [(f, (rhs >> i) & 1) for i, f in enumerate(forms)])
        if sp is EMPTY:
            continue
        consistent += 1
        pts = list(enumerate_points(sp))
        assert len(pts) == 1 << (w - rank_of_rows(forms))
        assert len({p.bits for p in pts}) == len(pts)
        for p in pts:
            assert sp.contains(p.bits)
    assert consistent > 500


def test_sample_point_uniform_and_member():
    rng = random.Random(0)
    counts = Counter(sample_point(full_space(2), rng).bits for _ in range(4000))
    assert set(counts) == {0, 1, 2, 3}
    assert all(850 <= v <= 1150 for v in counts.values())

    s = space_from_pairs(1, [(1, 1)])
    assert all(sample_point(s, rng).bits == 1 for _ in range(20))

    codim1 = space_from_pairs(3, [(0b111, 1)])
    for _ in range(200):
        p = sample_point(codim1, rng)
        assert codim1.contains(p.bits)

    with pytest.raises(EmptySpaceError):
        sample_point(EMPTY, rng)


def test_points_array_matches_generator():
    # the generator's points in its order, at widths past a machine word too
    rng = random.Random(5)
    wide = 0
    for _ in range(100):
        w = rng.randint(1, 10)
        sp = random_space(w, rng.randint(0, 4), rng)
        if sp is EMPTY:
            continue
        assert points_array(sp) == [p.bits for p in enumerate_points(sp)]
    for w in (63, 64, 65, 100, 200):
        for _ in range(10):
            sp = random_space(w, w - rng.randint(1, 8), rng)
            if sp is EMPTY:
                continue
            pts = points_array(sp)
            assert pts == [p.bits for p in enumerate_points(sp)]
            assert len(set(pts)) == sp.size() and all(sp.contains(p) for p in pts)
            wide += (max(pts) >> 63) > 0
    assert wide > 30


def test_space_equality_is_presentation_independent():
    a = space_from_pairs(3, [(0b011, 1), (0b110, 0)])
    b = space_from_pairs(3, [(0b110, 0), (0b101, 1)])  # row3 = row1 + row2
    assert a == b
    assert is_subspace(a, b) and is_subspace(b, a)
    c = intersect_space(a, b)
    assert c == a


def test_vector_text_round_trip():
    v = FVec(4, string_to_bits("0110"))
    assert v.get(1) == 1 and v.get(0) == 0
    assert v.to_string() == "0110"
    with pytest.raises(ValueError):
        FVec(2, 0b100)


@st.composite
def pairs_of_width(draw, max_width=8, max_rows=6):
    width = draw(st.integers(1, max_width))
    eq = st.tuples(st.integers(0, (1 << width) - 1), st.integers(0, 1))
    return width, draw(st.lists(eq, max_size=max_rows))


def _is_rref(space):
    pivots = [f & -f for f in space.forms()]
    return pivots == sorted(set(pivots)) and 0 not in pivots and all(
        not (f & p) for f in space.forms() for p in pivots if p != f & -f
    )


@settings(max_examples=300, deadline=None, database=None)
@given(pairs_of_width(), st.data())
def test_with_equation_matches_point_filter(case, data):
    width, pairs = case
    space = space_from_pairs(width, pairs)
    form = data.draw(st.integers(0, (1 << width) - 1))
    bit = data.draw(st.integers(0, 1))
    out = space.with_equation(form, bit)
    want = {p.bits for p in enumerate_points(space) if parity(form & p.bits) == bit}
    assert {p.bits for p in enumerate_points(out)} == want
    assert out is EMPTY or _is_rref(out)


@settings(max_examples=150, deadline=None, database=None)
@given(pairs_of_width(max_rows=5))
def test_space_from_pairs_ignores_pair_order(case):
    width, pairs = case
    space = space_from_pairs(width, pairs)
    for perm in itertools.permutations(pairs):
        assert space_from_pairs(width, perm) == space


@settings(max_examples=300, deadline=None, database=None)
@given(pairs_of_width(), st.data())
def test_split_matches_two_with_equation_calls(case, data):
    width, pairs = case
    space = space_from_pairs(width, pairs)
    # a random form, or a sum of the system's own forms, which the space
    # implies or contradicts
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    form = data.draw(st.one_of(st.integers(0, (1 << width) - 1), st.just(0)))
    if data.draw(st.booleans()):
        form = 0
        for f, _ in chosen:
            form ^= f
    halves = space.split(form)
    assert halves == (space.with_equation(form, 0), space.with_equation(form, 1))
    if space is not EMPTY and space.reduce(form)[0] == 0:
        # an implied form keeps the space itself on one side and EMPTY on the other
        assert sorted(map(id, halves)) == sorted(map(id, (space, EMPTY)))


def test_with_equation_rejects_forms_wider_than_the_space():
    with pytest.raises(ValueError):
        full_space(3).with_equation(0b1000, 0)
    with pytest.raises(ValueError):
        full_space(3).split(0b1000)
    assert EMPTY.with_equation(0b1, 1) is EMPTY
    assert EMPTY.split(0b1) == (EMPTY, EMPTY)


@settings(max_examples=400, deadline=None, database=None)
@given(pairs_of_width(max_width=10, max_rows=8), st.data())
def test_is_subspace_matches_intersection_and_points(case, data):
    width, pairs = case
    outer = space_from_pairs(width, pairs)
    # inner: outer cut further (always inside), or an unrelated system; either may be EMPTY
    extra = data.draw(st.lists(st.tuples(st.integers(0, (1 << width) - 1), st.integers(0, 1)), max_size=4))
    inner = space_from_pairs(width, (pairs if data.draw(st.booleans()) else []) + extra)
    got = is_subspace(inner, outer)
    assert got == (intersect_space(inner, outer) == inner)
    outer_points = {p.bits for p in enumerate_points(outer)}
    assert got == all(p.bits in outer_points for p in enumerate_points(inner))


def test_is_subspace_rejects_a_width_mismatch():
    with pytest.raises(ValueError):
        is_subspace(full_space(2), full_space(3))
    with pytest.raises(ValueError):
        is_subspace(full_space(3), space_from_pairs(2, [(0b01, 1)]))


def _echelon_from_scratch(width, pairs):
    """Reduced row-echelon form by plain Gauss-Jordan elimination, with no
    fast path: the oracle for the appending insertion and the reduction exit."""
    rows = []
    for form, bit in pairs:
        for f, c in rows:
            if form & f & -f:
                form ^= f
                bit ^= c
        if form == 0:
            if bit:
                return EMPTY
            continue
        low = form & -form
        rows = [(f ^ form, c ^ bit) if f & low else (f, c) for f, c in rows] + [(form, bit)]
    return AffineSpace(width, tuple(sorted(rows, key=lambda fc: fc[0] & -fc[0])))


@st.composite
def forms_above_every_pivot(draw):
    """(width, pairs, form): a non-empty system and a form whose lowest bit
    lies above every pivot of its space.  Often some row holds that bit off
    its own pivot, and often the form also holds the last pivot itself."""
    width = draw(st.integers(2, 10))
    top = draw(st.integers(1, width - 1))  # the new pivot's coordinate
    pairs = draw(st.lists(st.tuples(st.integers(1, (1 << top) - 1), st.integers(0, 1)), max_size=top))
    if draw(st.booleans()):  # a row below the new pivot that also holds it
        pairs.append((draw(st.integers(1, (1 << top) - 1)) | 1 << top, draw(st.integers(0, 1))))
    space = _echelon_from_scratch(width, pairs)
    assume(space is not EMPTY and all(f & -f < 1 << top for f, _ in space.rows))
    form = 1 << top | draw(st.integers(0, (1 << width) - 1)) >> (top + 1) << (top + 1)
    if draw(st.booleans()) and space.rows:  # also hold the last pivot, which the reduction must clear
        form |= space.rows[-1][0] & -space.rows[-1][0]
    return width, pairs, form


@settings(max_examples=400, deadline=None, database=None)
@given(forms_above_every_pivot(), st.integers(0, 1))
def test_forms_above_every_pivot_match_a_from_scratch_echelon_form(case, bit):
    width, pairs, form = case
    space = space_from_pairs(width, pairs)
    want = [_echelon_from_scratch(width, pairs + [(form, b)]) for b in (0, 1)]
    assert space == _echelon_from_scratch(width, pairs)
    assert space.with_equation(form, bit) == want[bit]
    assert space.split(form) == tuple(want)
    assert [space_from_pairs(width, pairs + [(form, b)]) for b in (0, 1)] == want
    # the reduction against every row, with no exit
    reduced, rhs = form, bit
    for f, c in space.rows:
        if reduced & f & -f:
            reduced ^= f
            rhs ^= c
    assert space.reduce(form, bit) == (reduced, rhs)


def _inserted_by_sorting(rows, form, bit):
    """Plain clear-and-insert with no fast path: the oracle for `_inserted_rows`."""
    low = form & -form
    out = [(f ^ form, c ^ bit) if f & low else (f, c) for f, c in rows] + [(form, bit)]
    return tuple(sorted(out, key=lambda fc: fc[0] & -fc[0]))


@st.composite
def reduced_rows_and_forms(draw):
    """(width, pairs, form): a system whose echelon rows often hold bits above
    their pivots, and a form that its space reduces to a nonzero row.  Half
    the forms put their pivot on a bit that some row holds off its own pivot,
    and often above the last pivot, where the last pivot alone would say
    "append"."""
    width, pairs = draw(pairs_of_width(max_width=10, max_rows=8))
    space = space_from_pairs(width, pairs)
    assume(space is not EMPTY)
    pivots = sum(f & -f for f, _ in space.rows)
    off_pivot = [i for i in range(width) if (space.touched & ~pivots) >> i & 1]
    if off_pivot and draw(st.booleans()):
        top = draw(st.sampled_from(off_pivot))
        form = 1 << top | draw(st.integers(0, (1 << width) - 1)) >> (top + 1) << (top + 1)
    else:
        form = draw(st.integers(1, (1 << width) - 1))
    assume(space.reduce(form)[0])
    return width, pairs, form


@settings(max_examples=400, deadline=None, database=None)
@given(reduced_rows_and_forms(), st.integers(0, 1), st.data())
def test_inserted_rows_match_a_clear_and_insert_reference(case, bit, data):
    width, pairs, form = case
    space = space_from_pairs(width, pairs)
    touched = 0
    for f, _ in space.rows:
        touched |= f
    assert space.touched == touched
    form, bit = space.reduce(form, bit)
    want = _inserted_by_sorting(space.rows, form, bit)
    # near misses: one row's bit flipped, the last row dropped, a row too many
    misses = [want[:i] + ((f, c ^ 1),) + want[i + 1:] for i, (f, c) in enumerate(want)]
    misses += [want[:-1], want + ((0, 1),)]
    for hint in (touched, -1, (1 << width) - 1):  # exact, unknown, and every bit of the width
        assert _inserted_rows(space.rows, hint, form, bit) == want
        assert _rows_are_inserted(want, space.rows, hint, form, bit)
        assert not any(_rows_are_inserted(miss, space.rows, hint, form, bit) for miss in misses)
    grown = space._insert(form, bit)
    assert grown.rows == want and grown.touched == touched | form
    # spaces built by other insertion orders, or from bare rows, compare and hash equal
    # whatever their touched field holds
    others = [space_from_pairs(width, data.draw(st.permutations(pairs + [(form, bit)]))),
              AffineSpace(width, want),
              AffineSpace(width, want, data.draw(st.integers(-1, (1 << width) - 1)))]
    for other in others:
        assert other == grown and hash(other) == hash(grown) and repr(other) == repr(grown)
    # a bare-row space takes no shortcut and still reduces and extends correctly
    bare = AffineSpace(width, space.rows)
    assert bare.reduce(form, bit) == (form, bit)
    assert bare.with_equation(form, bit) == grown
