"""Boolean gadgets: truth tables, Walsh spectra, lifting, preimage counting.

Spectra are exact dyadic rationals (integer numerators over 2^b), and a
spectrum is always that of (-1)^g: its coefficients are g's correlations
with the parities, which the norm bounds read.

Counting and sampling in lifted fibres share one engine.  `_block_tables`
splits a space's rows into local rows, which only filter one block's
candidate values, and the m cross-block rows, which give every remaining
value a syndrome; `SYNDROME_DIM_CAP` bounds m for both.  A target (an FVec,
its bits as an int, or a partial {block: bit} mapping) is read once into a
fixed-block mask and bits, and each block takes class z_i or FREE.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import f2
from ._bits import mask_bits, parity, parity_u64
from ._text import Lines, expect, parse_bits, parse_int
from .blocks import BlockLayout
from .cnf import Cnf
from .f2 import EMPTY, AffineSpace, FVec

SPECTRUM_ARITY_CAP = 24
SYNDROME_DIM_CAP = 20
_LIFT_CLAUSE_CAP = 1 << 20  # most clauses lift_cnf writes


class EmptyPreimageError(ValueError):
    """A required gadget preimage set is empty (unbalanced gadget)."""


class EmptySupportError(ValueError):
    """A conditioned lifted distribution has empty support."""


@dataclass(frozen=True)
class Gadget:
    """A boolean function on b bits given by its full truth table.

    table[v] is the output on the input whose coordinate j equals bit j of v.
    """

    b: int
    table: tuple[int, ...]
    # a block's candidate values per class, as read-only uint64 arrays:
    # g^-1(0), g^-1(1) and (FREE) every value
    class_values: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.table) != 1 << self.b:
            raise ValueError("table length must be 2^b")
        if any(t not in (0, 1) for t in self.table):
            raise ValueError("table entries must be bits")
        table = np.frombuffer(bytes(self.table), dtype=np.uint8)
        values = [np.flatnonzero(table == bit).astype(np.uint64) for bit in (0, 1)]
        values.append(np.arange(1 << self.b, dtype=np.uint64))
        for v in values:
            v.flags.writeable = False
        object.__setattr__(self, "class_values", tuple(values))

    def preimage(self, bit: int) -> tuple[int, ...]:
        if bit not in (0, 1):
            raise ValueError("target bits must be 0/1")
        return tuple(self.class_values[bit].tolist())

    @classmethod
    def from_text(cls, text: str) -> "Gadget":
        b = table = None
        with Lines(text, "#") as lines:
            for fields in lines:
                if b is None:
                    b = parse_int(expect(fields, "<arity>")[0], False)
                elif table is None:
                    table = tuple(parse_bits(ch, 1) for ch in expect(fields, "<table>")[0])
                else:
                    raise ValueError("a gadget is an arity line and a truth-table line only")
            if table is None:
                raise ValueError("gadget text needs an arity line and a truth-table line")
        return cls(b, table)


def _check_arity(b: int) -> None:
    """Reject an arity whose 2^b-entry table no spectrum could be taken of, before it is built."""
    if b > SPECTRUM_ARITY_CAP:
        raise ValueError(f"arity {b} exceeds spectrum cap {SPECTRUM_ARITY_CAP}")


def parity_gadget(b: int) -> Gadget:
    _check_arity(b)
    return Gadget(b, tuple(parity(v) for v in range(1 << b)))


def ip_gadget(b: int) -> Gadget:
    """Inner product of the low b/2 coordinates with the high b/2 coordinates."""
    if b < 2 or b % 2:
        raise ValueError("inner product needs an even arity >= 2")
    _check_arity(b)
    half = b // 2
    lo_mask = mask_bits(half)
    table = tuple(parity((v & lo_mask) & (v >> half)) for v in range(1 << b))
    return Gadget(b, table)


@dataclass(frozen=True)
class Spectrum:
    """Walsh coefficients of (-1)^g: coeff(S) = numerators[S] / 2^b, S encoded as a mask."""

    b: int
    numerators: tuple[int, ...]

    @property
    def denominator(self) -> int:
        return 1 << self.b

    def max_abs(self) -> Fraction:
        return Fraction(max(map(abs, self.numerators)), self.denominator)

    def to_csv(self) -> str:
        lines = ["S_mask,numerator,denominator"]
        den = self.denominator
        for mask, num in enumerate(self.numerators):
            lines.append(f"{mask},{num},{den}")
        return "\n".join(lines) + "\n"


def _fwht_inplace(vals: np.ndarray) -> None:
    """Unnormalised Walsh-Hadamard transform along the last axis, of length 2^b.

    One butterfly per level over all blocks (and rows) at once: viewed as
    (-1, 2, h), each block's low half becomes a + b and its high half a - b.
    """
    h = 1
    size = vals.shape[-1]
    while h < size:
        pairs = vals.reshape(-1, 2, h)
        a = pairs[:, 0, :].copy()
        pairs[:, 0, :] += pairs[:, 1, :]
        pairs[:, 1, :] = a - pairs[:, 1, :]
        h *= 2


def walsh_spectrum(g: Gadget) -> Spectrum:
    """Exact Walsh transform of (-1)^g; coefficients are dyadic with denominator 2^b."""
    _check_arity(g.b)
    vals = 1 - 2 * np.array(g.table, dtype=np.int64)
    _fwht_inplace(vals)
    return Spectrum(g.b, tuple(vals.tolist()))


def max_fourier(g: Gadget) -> Fraction:
    """The infinity norm of the spectrum of (-1)^g."""
    return walsh_spectrum(g).max_abs()


def lift_eval(g: Gadget, layout: BlockLayout, x: FVec) -> FVec:
    """Apply the gadget blockwise: output bit i is g of block i of x."""
    if x.width != layout.width:
        raise ValueError("width mismatch")
    if layout.b != g.b:
        raise ValueError("layout block size differs from gadget arity")
    out = 0
    for i in range(layout.n):
        if g.table[layout.block_value(x.bits, i)]:
            out |= 1 << i
    return FVec(layout.n, out)


def _read_target(layout: BlockLayout, z) -> tuple[int, int]:
    """(fixed mask, bits) over the blocks of a full target (an FVec of width n,
    or its bits as an int) or a partial {block: bit} mapping."""
    full = (1 << layout.n) - 1
    if isinstance(z, int):
        if not 0 <= z <= full:
            raise ValueError("target out of range for the number of blocks")
        return full, z
    if isinstance(z, FVec):
        if z.width != layout.n:
            raise ValueError("target width must equal the number of blocks")
        return full, z.bits
    fixed = bits = 0
    for i, bit in sorted(dict(z).items()):
        if not 0 <= i < layout.n:
            raise ValueError("block out of range")
        if bit not in (0, 1):
            raise ValueError("target bits must be 0/1")
        fixed |= 1 << i
        bits |= bit << i
    return fixed, bits


def preimages(g: Gadget, layout: BlockLayout, z) -> Iterator[int]:
    """Stream the preimage product set of a full or partial base target.

    For a partial target the points range over the fixed blocks only,
    re-indexed in ascending block order; the last fixed block varies fastest.
    """
    fixed, bits = _read_target(layout, z)
    per_block = []
    for i in range(layout.n):
        if (fixed >> i) & 1:
            bit = (bits >> i) & 1
            pre = g.class_values[bit].tolist()
            if not pre:
                raise EmptyPreimageError(f"gadget has no preimage of {bit}")
            per_block.append(pre)
    for choice in itertools.product(*per_block):
        point = 0
        for pos, v in enumerate(choice):
            point |= v << (pos * layout.b)
        yield point


def count_preimages(g: Gadget, layout: BlockLayout, z) -> int:
    """|G^-1(z)| over the fixed blocks: n_0^(fixed zeros) * n_1^(fixed ones), n_c = |g^-1(c)|."""
    fixed, bits = _read_target(layout, z)
    ones = bits.bit_count()
    return len(g.class_values[0]) ** (fixed.bit_count() - ones) * len(g.class_values[1]) ** ones


FREE = 2  # class of a block that a partial target leaves unconstrained
_WALSH_CHUNK = 1 << 16  # entries of the (targets x blocks x 2^m) gather of Walsh tables per pass


def _unpack(layout: BlockLayout, ints: Sequence[int]) -> np.ndarray:
    """Bit i of every int as a (len(ints), n) array: one little-endian bit unpack."""
    nbytes = (layout.n + 7) // 8
    raw = np.frombuffer(b"".join(x.to_bytes(nbytes, "little") for x in ints), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(ints), nbytes), axis=1, count=layout.n, bitorder="little")


def _target_classes(layout: BlockLayout, targets: Sequence) -> np.ndarray:
    """Per target and block, its class: z_i for a fixed block, FREE for an open one."""
    # unpack each (fixed, bits) pair at once: a list of pairs would keep one tuple
    # per target alive, and thousands of them set off garbage collections
    fixed, bits = [], []
    for z in targets:
        f, x = _read_target(layout, z)
        fixed.append(f)
        bits.append(x)
    classes = _unpack(layout, bits).astype(np.intp)
    if fixed.count(mask_bits(layout.n)) < len(fixed):  # some target leaves a block open
        classes[_unpack(layout, fixed) == 0] = FREE
    return classes


def _check_layout(space: AffineSpace | f2._EmptySpace, layout: BlockLayout, g: Gadget) -> None:
    if space is not EMPTY and space.width != layout.width:
        raise ValueError("width mismatch")
    if layout.b != g.b:
        raise ValueError("layout block size differs from gadget arity")


def _block_tables(space: AffineSpace, layout: BlockLayout, g: Gadget, classes: np.ndarray):
    """Syndrome-count tables of the candidate values of every (block, class) in classes.

    A row whose lowest and highest set bits lie in one block is local: it
    only filters that block's candidate values.  The m cross-block rows give
    a remaining value v of block i its syndrome, the bit vector of
    <form_j restricted to block i, v>.  Returns m, the right-hand side of the
    cross rows, the table of each (block, class), the values of every table
    and their syndromes (both in table order), the (tables x 2^m) syndrome
    counts, and a dtype that holds any product of the tables' Walsh
    transforms summed over the 2^m syndromes: int64 when |W_i[s]|, at most
    block i's largest table, leaves room below 2^62, Python ints otherwise.
    """
    b = layout.b
    local: list[list[tuple[int, int]]] = [[] for _ in range(layout.n)]
    cross = []
    for form, bit in space.rows:
        # rows are nonzero; a row is local when its lowest and highest bits share a block
        low = ((form & -form).bit_length() - 1) // b
        if low == (form.bit_length() - 1) // b:
            local[low].append((form >> (low * b), bit))
        else:
            cross.append((form, bit))
    m = len(cross)
    if m > SYNDROME_DIM_CAP:
        raise f2.EnumerationCapError(f"syndrome dimension {m} exceeds cap {SYNDROME_DIM_CAP}")
    present = np.zeros((layout.n, FREE + 1), dtype=bool)
    present[np.arange(layout.n), classes] = True
    owners, used = np.nonzero(present)  # tables run in (block, class) order
    table_of = np.zeros(present.shape, dtype=np.intp)
    table_of[owners, used] = np.arange(len(owners))
    owners, used = owners.tolist(), used.tolist()
    chunks = []
    largest = [0] * layout.n
    for i, c in zip(owners, used):
        values = g.class_values[c]
        for form, bit in local[i]:
            values = values[parity_u64(values & np.uint64(form)) == bit]
        chunks.append(values)
        largest[i] = max(largest[i], len(values))
    size = 1 << m
    values = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint64)
    chunk_of = np.repeat(np.arange(len(chunks)), [len(v) for v in chunks])
    syn = np.zeros(len(values), dtype=np.int64)
    if cross:
        block_of = np.asarray(owners, dtype=np.intp)[chunk_of]
    for j, (form, _) in enumerate(cross):
        parts = np.array([(form >> (i * b)) & mask_bits(b) for i in range(layout.n)], dtype=np.uint64)
        syn |= parity_u64(values & parts[block_of]).astype(np.int64) << j
    counts = np.bincount(chunk_of * size + syn, minlength=len(chunks) * size).reshape(len(chunks), size)
    rhs = sum(bit << j for j, (_, bit) in enumerate(cross))
    dtype = np.int64 if m + sum(c.bit_length() for c in largest) <= 62 else object
    return m, rhs, table_of, chunks, syn, counts, dtype


def _inverse_fwht(hat: np.ndarray, m: int) -> np.ndarray:
    """Exact inverse of `_fwht_inplace`: transform again and divide by 2^m."""
    vals = hat.copy()
    _fwht_inplace(vals)
    if np.count_nonzero(vals % (1 << m)):
        raise RuntimeError("an inverse Walsh transform left a fraction")
    return vals // (1 << m)


def counts_in_space(space: AffineSpace | f2._EmptySpace, layout: BlockLayout, g: Gadget, targets: Sequence) -> list[int]:
    """Exact |{x : x in space, g(x(i)) = z_i for fixed i}| for every target z.

    A target is a full one over the blocks (an FVec of width n, or its bits
    as an int) or a partial {block: bit} mapping.  A block's syndrome table
    (`_block_tables`) depends only on its class (z_i = 0, z_i = 1 or free),
    so it is built and Walsh-transformed once per class present.  Each count
    is then read off the Walsh-domain product of per-block syndrome tables:
    2^-m * sum_s (-1)^<s, rhs> * prod_i W_i[class(z_i)][s].
    """
    _check_layout(space, layout, g)
    return _class_counts(space, layout, g, _target_classes(layout, targets)).tolist()


def _class_counts(space: AffineSpace | f2._EmptySpace, layout: BlockLayout, g: Gadget, classes: np.ndarray) -> np.ndarray:
    """`counts_in_space` for targets already read into `_target_classes`, as an
    int64 array, or an object array of Python ints past int64's range."""
    if space is EMPTY:
        return np.zeros(len(classes), dtype=np.int64)
    m, rhs, table_of, _, _, hats, dtype = _block_tables(space, layout, g, classes)
    size = 1 << m
    _fwht_inplace(hats)
    hats = hats.astype(dtype, copy=False)
    rows = table_of[np.arange(layout.n), classes]  # per target and block, its row of hats
    sign = np.ones(1, dtype=dtype)  # (-1)^<s, rhs>, doubled one syndrome bit at a time
    for j in range(m):
        sign = np.concatenate((sign, -sign if (rhs >> j) & 1 else sign))
    out = []
    step = max(1, _WALSH_CHUNK // (size * max(1, layout.n)))
    for start in range(0, len(classes), step):
        totals = hats[rows[start:start + step]].prod(axis=1) @ sign
        if np.count_nonzero(totals % size):
            raise RuntimeError("a Walsh-domain count is not a multiple of 2^m")
        out.append(totals // size)
    return np.concatenate(out) if out else np.zeros(0, dtype=dtype)


def count_in_space(space: AffineSpace | f2._EmptySpace, layout: BlockLayout, g: Gadget, z) -> int:
    """Exact |{x : x in space, g(x(i)) = z_i for fixed i}|: `counts_in_space` for one target."""
    return counts_in_space(space, layout, g, [z])[0]


def sample_in_space(space: AffineSpace | f2._EmptySpace, layout: BlockLayout, g: Gadget, z, rng) -> FVec:
    """Uniform sample from {x : x in space, g(x(i)) = z_i for fixed i}.

    Exact sequential sampling over the block tables of `counts_in_space`:
    block values are chosen with probability proportional to the number of
    completions.  The completion counts of blocks i..n-1 are the inverse
    transform of the Walsh-domain product of their syndrome tables over the
    m cross-block rows, accumulated from the last block down.
    """
    _check_layout(space, layout, g)
    classes = _target_classes(layout, [z])
    if space is EMPTY:
        raise EmptySupportError("no point matches the space and target")
    m, rhs, _, chunks, syn, counts, dtype = _block_tables(space, layout, g, classes)
    size = 1 << m
    hats = counts.copy()
    _fwht_inplace(hats)
    # row i: the Walsh-domain product of the tables of blocks i..n-1
    suffix_hats = np.multiply.accumulate(hats[::-1].astype(dtype), axis=0)[::-1]
    suffix = np.concatenate([_inverse_fwht(suffix_hats, m), np.zeros((1, size), dtype=suffix_hats.dtype)])
    suffix[-1, 0] = 1  # the empty suffix completes only syndrome 0
    if suffix[0, rhs] == 0:
        raise EmptySupportError("no point matches the space and target")
    syndromes = np.arange(size)
    bits = 0
    need = rhs
    start = 0
    for i, values in enumerate(chunks):
        block_syn = syn[start:start + len(values)]
        start += len(values)
        # running sums of the weights counts[i][s] * suffix[i + 1][need ^ s]; the pick is the first above the draw
        running = np.cumsum(counts[i] * suffix[i + 1][syndromes ^ need])
        s = int(np.searchsorted(running, rng.randrange(int(running[-1])), side="right"))
        members = values[block_syn == s]
        v = int(members[rng.randrange(len(members))])
        bits |= v << (i * layout.b)
        need ^= s
    if not space.contains(bits):
        raise RuntimeError("sampled point lies outside the space")
    return FVec(layout.width, bits)


@dataclass(frozen=True)
class LiftedDistribution:
    """Sample z from an explicit weighted base support, then uniform in G^-1(z).

    The layout's blocks have the gadget's arity, and every fibre G^-1(z) of
    the support is nonempty.
    """

    layout: BlockLayout
    gadget: Gadget
    base: tuple[tuple[int, int], ...]  # (z bits over n, positive integer weight)
    totals: tuple[int, ...] = field(init=False, repr=False, compare=False)  # running sums of the weights

    def __post_init__(self):
        if self.layout.b != self.gadget.b:
            raise ValueError("layout block size differs from gadget arity")
        if not self.base:
            raise ValueError("base support must be non-empty")
        for z_bits, w in self.base:
            if w <= 0:
                raise ValueError("weights must be positive")
            if not 0 <= z_bits < (1 << self.layout.n):
                raise ValueError("base point out of range")
        # a table takes at least one value, so at most one class is empty
        n0, n1 = (len(v) for v in self.gadget.class_values[:2])
        ones = mask_bits(self.layout.n)
        if any((not n0 and z != ones) or (not n1 and z) for z, _ in self.base):
            raise EmptyPreimageError("base point has an empty fiber")
        object.__setattr__(self, "totals", tuple(itertools.accumulate(w for _, w in self.base)))


def _pick(totals: Sequence[int], rng) -> int:
    """Index drawn with probability proportional to its weight, given the running sums of the weights."""
    return bisect.bisect_right(totals, rng.randrange(totals[-1]))


def _sample_fibre(layout: BlockLayout, g: Gadget, z: int, rng) -> FVec:
    """Uniform point of G^-1(z), drawn as `sample_in_space` draws it in the full space.

    With no cross rows there is one syndrome, so each block first makes the
    sampler's syndrome pick, a randrange over the fibre size of blocks i..n-1,
    and then picks its value from g^-1(z_i).
    """
    classes = [g.class_values[(z >> i) & 1] for i in range(layout.n)]
    rest = math.prod(len(values) for values in classes)
    bits = 0
    for i, values in enumerate(classes):
        rng.randrange(rest)
        bits |= int(values[rng.randrange(len(values))]) << (i * layout.b)
        rest //= len(values)
    return FVec(layout.width, bits)


def sample_lifted(d: LiftedDistribution, conditioning: AffineSpace | None, rng) -> FVec:
    """Exact conditioned sample from the lifted distribution.

    The base point is drawn with weight w(z) * |G^-1(z) ∩ C| / |G^-1(z)|
    (the division keeps the base law intact when fibers differ in size),
    then the lifted point uniformly within the intersection; this equals
    rejection sampling from the lifted distribution conditioned on C.
    Unconditioned, the intersection is the whole fibre and the weight is
    w(z) itself, so nothing is counted, and the point is drawn block by
    block from the gadget's classes (`_sample_fibre`).
    """
    layout, g = d.layout, d.gadget
    if conditioning is None:
        return _sample_fibre(layout, g, d.base[_pick(d.totals, rng)][0], rng)
    zs = [z for z, _ in d.base]
    weights = []
    for (z, w), cnt in zip(d.base, counts_in_space(conditioning, layout, g, zs)):
        weights.append(Fraction(w * cnt, count_preimages(g, layout, z)))
    scale = math.lcm(*(fr.denominator for fr in weights))
    totals = list(itertools.accumulate(int(fr * scale) for fr in weights))
    if totals[-1] == 0:
        raise EmptySupportError("conditioning removes the whole support")
    return sample_in_space(conditioning, layout, g, zs[_pick(totals, rng)], rng)


def lift_cnf(phi: Cnf, g: Gadget) -> Cnf:
    """Substitute the gadget into every clause of the base CNF.

    Each base clause with falsifying pattern alpha on its variable set S turns
    into one clause per point of G^-1(alpha) over the blocks of S (`preimages`);
    the clause forbids x(i) = a_i simultaneously for all i in S.  The clauses
    to write are counted first, and more than `_LIFT_CLAUSE_CAP` is an error.
    """
    b = g.b
    layout = BlockLayout(phi.num_vars, b)
    targets = []
    total = 0
    for clause in phi.clauses:
        target = {abs(lit) - 1: int(lit < 0) for lit in clause}
        if len(target) != len(clause):
            raise ValueError("clause repeats a variable")
        count = count_preimages(g, layout, target)
        if clause and not count:
            # a table holds at least one value, so exactly one class is empty
            raise EmptyPreimageError(f"gadget has no preimage of {int(not len(g.class_values[1]))}")
        total += count
        targets.append(target)
    if total > _LIFT_CLAUSE_CAP:
        raise ValueError(f"lifting writes {total} clauses, above cap {_LIFT_CLAUSE_CAP}")
    out: list[tuple[int, ...]] = []
    for target in targets:
        bases = [i * b for i in sorted(target)]
        for point in preimages(g, layout, target):
            lits = []
            for base in bases:
                for var in range(base + 1, base + b + 1):
                    lits.append(-var if point & 1 else var)
                    point >>= 1
            out.append(tuple(lits))
    return Cnf(phi.num_vars * b, tuple(out))
