"""Exact verification of the fooling and equidistribution lemmas.

Probabilities are exact rationals from integer counts made by per-block
syndrome counting (`gadget.count_in_space`), which needs no enumeration of
the cube; `oracles.cube_counts`, the exhaustive full-cube sweep, is the
reference that tests compare it with.  The asymptotic slack terms of the
source bounds are replaced by the explicit finite-scale budget
eta = (1 + 2*maxcoeff)^n - 1, where maxcoeff bounds the Fourier
coefficients of (-1)^g; this equals the error summation
sum_k C(n,k) 2^k maxcoeff^k (`oracles.eta_by_summation`).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import f2
from ._bits import mask_bits, parity
from .blocks import BlockLayout, ClosureAssignment, amortized_closure, closure, is_safe, restrict, substitute
from .f2 import EMPTY, AffineSpace, FVec, is_subspace, space_from_pairs
from .gadget import Gadget, count_in_space, count_preimages, lift_eval, max_fourier
from .oracles import amortized_closure_bruteforce, closure_bruteforce, is_safe_bruteforce, is_safe_span_bruteforce

_SAFE_SPACE_TRIES = 1000  # random systems random_safe_space draws before it gives up
_NESTED_PAIR_TRIES = 2000  # witness draws nested_pair_with_gap makes before it gives up

OK = "OK"
VIOLATED = "VIOLATED"
INCONCLUSIVE = "INCONCLUSIVE"
VACUOUS_OK = "VACUOUS_OK"

LEMMA_CSV_HEADER = "lemma,parameters,numerator,denominator,bound_low,bound_high,verdict"


class UnsafeSpaceError(ValueError):
    """The lemma requires a safe affine space."""


@dataclass(frozen=True)
class ErrorBudget:
    """Finite-scale error budget for n blocks of a gadget with small spectrum."""

    n: int
    b: int
    maxcoeff: Fraction

    @property
    def eta(self) -> Fraction:
        return (1 + 2 * self.maxcoeff) ** self.n - 1

    @classmethod
    def for_gadget(cls, g: Gadget, n: int) -> "ErrorBudget":
        return cls(n, g.b, max_fourier(g))


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    params: tuple[tuple[str, str], ...]
    probability: Fraction
    bound_low: Fraction | None
    bound_high: Fraction | None
    verdict: str
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.verdict in (OK, VACUOUS_OK)

    def to_text(self) -> str:
        lines = [f"lemma: {self.lemma}"]
        for k, v in self.params:
            lines.append(f"  {k}: {v}")
        lines.append(f"  probability: {self.probability} (= {float(self.probability):.10g})")
        if self.bound_low is not None:
            lines.append(f"  bound_low: {self.bound_low} (= {float(self.bound_low):.10g})")
        if self.bound_high is not None:
            lines.append(f"  bound_high: {self.bound_high} (= {float(self.bound_high):.10g})")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  verdict: {self.verdict}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        params = ";".join(f"{k}={v}" for k, v in self.params)
        row = ",".join(
            [
                self.lemma,
                params,
                str(self.probability.numerator),
                str(self.probability.denominator),
                "" if self.bound_low is None else str(self.bound_low),
                "" if self.bound_high is None else str(self.bound_high),
                self.verdict,
            ]
        )
        return LEMMA_CSV_HEADER + "\n" + row + "\n"


def check_exponential_sum(a: AffineSpace, layout: BlockLayout, g: Gadget, z: FVec) -> LemmaReport:
    """Pr[x in A and G(x)=z] is within the eta budget of 2^-(n+m), A safe."""
    if not is_safe(a.forms(), layout):
        raise UnsafeSpaceError("the lemma requires a safe space")
    m = a.codim
    count = count_in_space(a, layout, g, z)
    p = Fraction(count, 1 << layout.width)
    budget = ErrorBudget.for_gadget(g, layout.n)
    target = Fraction(1, 1 << (layout.n + m))
    lo, hi = target * (1 - budget.eta), target * (1 + budget.eta)
    verdict = OK if lo <= p <= hi else VIOLATED
    slack = abs(p - target)
    return LemmaReport(
        "exponential-sum",
        (
            ("n", str(layout.n)),
            ("b", str(layout.b)),
            ("codim", str(m)),
            ("z", z.to_string()),
            ("eta", str(budget.eta)),
            ("count", str(count)),
        ),
        p,
        lo,
        hi,
        verdict,
        (f"target {target}", f"slack {slack} (allowed {target * budget.eta})"),
    )


def check_uniform_coset(a: AffineSpace, layout: BlockLayout, g: Gadget, z: FVec) -> LemmaReport:
    """Pr_{x ~ G^-1(z)}[x in A] is within the two-sided coset-counting bounds."""
    if not is_safe(a.forms(), layout):
        raise UnsafeSpaceError("the lemma requires a safe space")
    m = a.codim
    gz = count_preimages(g, layout, z)
    if gz == 0:
        raise f2.EmptySpaceError("target has no preimages")
    p = Fraction(count_in_space(a, layout, g, z), gz)
    budget = ErrorBudget.for_gadget(g, layout.n)
    eta = budget.eta
    params = (
        ("n", str(layout.n)),
        ("b", str(layout.b)),
        ("codim", str(m)),
        ("z", z.to_string()),
        ("eta", str(eta)),
    )
    if eta >= 1:
        return LemmaReport(
            "uniform-coset", params, p, None, None, INCONCLUSIVE, ("eta >= 1: bound vacuous at these parameters",)
        )
    lo = (1 - eta) / ((1 + eta) * (1 << m))
    hi = (1 + eta) / ((1 - eta) * (1 << m))
    verdict = OK if lo <= p <= hi else VIOLATED
    return LemmaReport("uniform-coset", params, p, lo, hi, verdict)


def _amortized_gap(b_space: AffineSpace, a_space: AffineSpace, layout: BlockLayout) -> int:
    return len(amortized_closure(b_space.forms(), layout)[0]) - len(
        amortized_closure(a_space.forms(), layout)[0]
    )


def check_conditional_fooling(
    b_space: AffineSpace,
    a_space: AffineSpace,
    layout: BlockLayout,
    g: Gadget,
    y: ClosureAssignment,
    z: FVec,
    k: int,
) -> LemmaReport:
    """Exact Pr[x in B | x in A] over G^-1(z) ∩ C_y against step^k and (3/4)^k.

    step = (1/2)(1+eta')/(1-eta') with eta' the budget of the layout left
    after conditioning on the closure blocks of A.
    """
    if not is_subspace(b_space, a_space):
        raise ValueError("B must be contained in A")
    if _amortized_gap(b_space, a_space, layout) != k:
        raise ValueError("amortized closure gap does not match k")
    a_sub = restrict(a_space, y)
    for blk in sorted(y.blocks):
        if g.table[y.value(blk)] != z.get(blk):
            raise ValueError("G(y) must agree with z on the closure blocks")
    sub_layout, kept = layout.without(y.blocks)
    b_sub = substitute(b_space, y)
    z_sub = FVec(sub_layout.n, sum(z.get(blk) << pos for pos, blk in enumerate(kept)))
    cnt_a = count_in_space(a_sub, sub_layout, g, z_sub)
    cnt_b = count_in_space(b_sub, sub_layout, g, z_sub)
    budget = ErrorBudget.for_gadget(g, sub_layout.n)
    eta = budget.eta
    params = (
        ("n", str(layout.n)),
        ("b", str(layout.b)),
        ("k", str(k)),
        ("cl_A", ",".join(map(str, sorted(y.blocks)))),
        ("z", z.to_string()),
        ("eta_restricted", str(eta)),
        ("count_A", str(cnt_a)),
        ("count_B", str(cnt_b)),
    )
    if cnt_a == 0:
        return LemmaReport(
            "conditional-fooling", params, Fraction(0), None, None, VACUOUS_OK, ("empty conditioned support",)
        )
    p = Fraction(cnt_b, cnt_a)
    if eta >= 1:
        return LemmaReport(
            "conditional-fooling", params, p, None, None, INCONCLUSIVE, ("eta >= 1: step bound vacuous",)
        )
    step = Fraction(1, 2) * (1 + eta) / (1 - eta)
    bound = step**k
    notes = [f"step {step} (= {float(step):.6g})"]
    verdict = OK if p <= bound else VIOLATED
    if step <= Fraction(3, 4):
        paper_bound = Fraction(3, 4) ** k
        notes.append(f"paper bound (3/4)^k = {paper_bound}: {'OK' if p <= paper_bound else 'VIOLATED'}")
        if p > paper_bound:
            verdict = VIOLATED
    else:
        notes.append("step > 3/4: paper bound not applicable at this scale")
    return LemmaReport("conditional-fooling", params, p, None, bound, verdict, tuple(notes))


class NoSensitiveCoordinateError(ValueError):
    pass


@dataclass(frozen=True)
class CounterexampleReport:
    """Why safety is necessary: unsafe nesting with conditional probability one."""

    n: int
    b: int
    base_point: int
    sensitive_coord: int
    target_bit: int
    codim_a: int
    codim_b: int
    a_is_safe: bool
    conditional_probability: Fraction
    uniform_on_a_probability: Fraction

    @property
    def ok(self) -> bool:
        # With b = 2 the construction fixes a single coordinate per block, so
        # A degenerates to a safe space; the unsafety claim needs b >= 3.
        unsafe_as_expected = (not self.a_is_safe) if self.b >= 3 else True
        return (
            self.conditional_probability == 1
            and self.codim_b == self.codim_a + self.n
            and unsafe_as_expected
            and self.uniform_on_a_probability == Fraction(1, 1 << self.n)
        )

    def to_text(self) -> str:
        return (
            f"counterexample: n={self.n} b={self.b} t={self.base_point:0{self.b}b}"
            f" sensitive_coord={self.sensitive_coord} target={self.target_bit}\n"
            f"  codim(A)={self.codim_a} codim(B)={self.codim_b} is_safe(A)={self.a_is_safe}\n"
            f"  Pr[x in B | x in A] under lifted target = {self.conditional_probability}\n"
            f"  Pr[x in B | x in A] under uniform on A = {self.uniform_on_a_probability}\n"
            f"  verdict: {OK if self.ok else VIOLATED}\n"
        )


def counterexample_demo(n: int, g: Gadget) -> CounterexampleReport:
    """Fix all but one sensitive coordinate per block; conditioning forces it.

    A fixes every block to a sensitive base point except one coordinate; B
    fixes that coordinate too.  Under the uniform distribution on the
    preimages of the matching constant target, the conditional probability of
    B given A is exactly one despite codim(B) = codim(A) + n.
    """
    found = None
    for t in range(1 << g.b):
        for j in range(g.b):
            if g.table[t] != g.table[t ^ (1 << j)]:
                found = (t, j)
                break
        if found:
            break
    if found is None:
        raise NoSensitiveCoordinateError("gadget is constant")
    t, j = found
    target_bit = g.table[t]
    layout = BlockLayout(n, g.b)
    pairs_a = []
    for i in range(n):
        for jj in range(g.b):
            if jj != j:
                pairs_a.append((1 << layout.flat(i, jj), (t >> jj) & 1))
    pairs_b = pairs_a + [(1 << layout.flat(i, j), (t >> j) & 1) for i in range(n)]
    a = space_from_pairs(layout.width, pairs_a)
    b_sp = space_from_pairs(layout.width, pairs_b)
    if a is EMPTY or b_sp is EMPTY:
        raise RuntimeError("the base point must satisfy the equations of A and B")
    z = FVec(n, mask_bits(n) if target_bit else 0)
    cnt_a = count_in_space(a, layout, g, z)
    if cnt_a == 0:
        raise RuntimeError("the base point must lie in A and in the preimage of z")
    cnt_b = count_in_space(b_sp, layout, g, z)
    return CounterexampleReport(
        n,
        g.b,
        t,
        j,
        target_bit,
        a.codim,
        b_sp.codim,
        is_safe(a.forms(), layout),
        Fraction(cnt_b, cnt_a),
        Fraction(b_sp.size(), a.size()),
    )


@dataclass(frozen=True)
class ClosureLawReport:
    trials: int
    seed: int
    checked: tuple[tuple[str, int], ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = [f"closure-laws: trials={self.trials} seed={self.seed}"]
        for name, count in self.checked:
            lines.append(f"  {name}: {count} instances")
        lines.append(f"  failures: {len(self.failures)}")
        lines.extend(f"  FAIL {f}" for f in self.failures)
        lines.append(f"  verdict: {OK if self.ok else VIOLATED}")
        return "\n".join(lines) + "\n"


def closure_law_suite(trials: int, seed: int) -> ClosureLawReport:
    """Randomized check of the closure laws against the brute-force references of `oracles`,
    on layouts of 1-4 blocks of 1-3 bits.

    Laws: closure contained in amortized closure; double monotonicity under
    adding rows; one-row continuity with closure preservation; augmentation
    stability under adding the closure's unit vectors; span invariance under
    row rewrites.  Implementations are also cross-checked against the
    exhaustive references.
    """
    rng = random.Random(seed)
    counts = {
        "containment": 0,
        "monotonicity": 0,
        "continuity": 0,
        "augmentation": 0,
        "span-invariance": 0,
        "oracle-agreement": 0,
    }
    failures: list[str] = []

    def fail(law: str, ctx: str) -> None:
        failures.append(f"{law}: {ctx}")

    for trial in range(trials):
        n = rng.randint(1, 4)
        b = rng.randint(1, 3)
        layout = BlockLayout(n, b)
        rows = [rng.getrandbits(layout.width) for _ in range(rng.randint(0, 5))]
        ctx = f"trial={trial} n={n} b={b} rows={rows}"
        cl, (am, _) = closure(rows, layout), amortized_closure(rows, layout)
        counts["oracle-agreement"] += 1
        if cl != closure_bruteforce(rows, layout) or am != amortized_closure_bruteforce(rows, layout):
            fail("oracle-agreement", ctx)
        safe3 = (is_safe(rows, layout), is_safe_bruteforce(rows, layout), is_safe_span_bruteforce(rows, layout))
        if len(set(safe3)) != 1:
            fail("oracle-agreement", ctx + f" safety={safe3}")
        counts["containment"] += 1
        if not cl <= am:
            fail("containment", ctx)
        extra = rng.getrandbits(layout.width)
        bigger = rows + [extra]
        cl2, (am2, _) = closure(bigger, layout), amortized_closure(bigger, layout)
        counts["monotonicity"] += 1
        if not (cl <= cl2 and am <= am2):
            fail("monotonicity", ctx + f" extra={extra}")
        counts["continuity"] += 1
        if len(am2) > len(am) + 1 or (len(am2) == len(am) + 1 and cl2 != cl):
            fail("continuity", ctx + f" extra={extra}")
        augmented = rows + [1 << layout.flat(i, jj) for i in sorted(cl) for jj in range(b)]
        counts["augmentation"] += 1
        if closure(augmented, layout) != cl or amortized_closure(augmented, layout)[0] != am:
            fail("augmentation", ctx)
        if len(rows) >= 2:
            counts["span-invariance"] += 1
            rewritten = list(rows)
            i1, i2 = rng.sample(range(len(rewritten)), 2)
            rewritten[i1] ^= rewritten[i2]
            if (
                is_safe(rewritten, layout) != is_safe(rows, layout)
                or closure(rewritten, layout) != cl
                or amortized_closure(rewritten, layout)[0] != am
            ):
                fail("span-invariance", ctx)
    return ClosureLawReport(trials, seed, tuple(sorted(counts.items())), tuple(failures))


def random_safe_space(layout: BlockLayout, codim: int, rng: random.Random) -> AffineSpace:
    """A random safe space of exactly the requested codimension.

    A safe system of rank r needs r distinct blocks, so codim cannot exceed
    the block count.
    """
    if codim > layout.n:
        raise ValueError(f"no safe space of codim {codim} exists on {layout.n} blocks")
    for _ in range(_SAFE_SPACE_TRIES):
        pairs = [(rng.getrandbits(layout.width), rng.getrandbits(1)) for _ in range(codim)]
        space = space_from_pairs(layout.width, pairs)
        if space is EMPTY or space.codim != codim:
            continue
        if is_safe(space.forms(), layout):
            return space
    raise RuntimeError("could not draw a safe space; layout too constrained")


def nested_pair_with_gap(
    layout: BlockLayout,
    g: Gadget,
    k: int,
    base_codim: int,
    rng: random.Random,
    concentrate_block: int | None = None,
) -> tuple[AffineSpace, AffineSpace, ClosureAssignment, FVec]:
    """(A, B, y, z) meeting the conditional-fooling hypotheses with gap k.

    A witness point anchors all right-hand sides, so B is a non-empty subspace
    of A, y is extendable, and z extends G(y).  With concentrate_block set,
    all of A's equations live inside that block, which forces it into the
    closure of A while leaving the other blocks free to absorb the gap.
    """
    if not 0 <= k <= layout.n:
        raise ValueError(f"an amortized gap of {k} cannot fit in {layout.n} blocks")
    for _ in range(_NESTED_PAIR_TRIES):
        x0 = rng.getrandbits(layout.width)
        forms = [rng.getrandbits(layout.width) for _ in range(base_codim)]
        if concentrate_block is not None:
            bmask = layout.block_mask(concentrate_block)
            forms = [f & bmask for f in forms]
        pairs_a = [(form, parity(form & x0)) for form in forms]
        a = space_from_pairs(layout.width, pairs_a)
        if a is EMPTY or a.codim != base_codim:
            continue
        cl_a = closure(a.forms(), layout)
        extra = []
        for _ in range(k):
            form = rng.getrandbits(layout.width)
            extra.append((form, parity(form & x0)))
        b_sp = space_from_pairs(layout.width, pairs_a + extra)
        if b_sp is EMPTY or b_sp.codim != base_codim + k:
            continue
        if _amortized_gap(b_sp, a, layout) != k:
            continue
        y = ClosureAssignment.from_point(layout, cl_a, x0)
        z = lift_eval(g, layout, FVec(layout.width, x0))
        return a, b_sp, y, z
    raise RuntimeError("could not construct a nested pair with the requested gap")
