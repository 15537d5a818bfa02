"""Res(oplus) refutations as affine DAGs: parser, checker, metrics, refuter.

Every node carries its own affine space (stored as explicit equations in the
proof file) and the checker verifies the four DAG conditions semantically,
comparing normalized spaces, so any presentation of the same space is
accepted.  Child 0 of a query node is the response-0 branch.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from . import f2
from ._bits import bits_to_string
from ._text import Lines, expect, parse_bits, parse_int
from .cnf import Cnf, _clause_masks
from .f2 import EMPTY, AffineSpace, FVec, full_space, is_subspace, space_from_pairs

LEAF = "LEAF"
WEAK = "WEAK"
QRY = "QRY"

REFUTE_VAR_CAP = 20


class DanglingNodeError(ValueError):
    pass


class CycleError(ValueError):
    pass


class SatisfiableError(Exception):
    """The CNF given to the refutation generator has a model."""

    def __init__(self, model: FVec):
        super().__init__(f"satisfiable; model {model.to_string()}")
        self.model = model


@dataclass(frozen=True, slots=True)
class ProofNode:
    node_id: int
    kind: str  # LEAF | WEAK | QRY
    space: AffineSpace | f2._EmptySpace
    clause: int | None = None  # LEAF
    child: int | None = None  # WEAK
    form: int | None = None  # QRY
    child0: int | None = None
    child1: int | None = None

    def children(self) -> tuple[int, ...]:
        if self.kind == WEAK:
            return (self.child,)
        if self.kind == QRY:
            return (self.child0, self.child1)
        return ()


@dataclass(frozen=True)
class ProofDag:
    width: int
    nodes: tuple[ProofNode, ...]  # the first node is the root
    by_id: dict[int, ProofNode]
    order: tuple[ProofNode, ...]  # every node once, each before its children
    id_order: tuple[ProofNode, ...]  # every node once, by ascending id

    @classmethod
    def build(cls, width: int, nodes: list[ProofNode]) -> "ProofDag":
        """Index the nodes and order them; raises on a duplicate id, a dangling child or a cycle.

        When the nodes come by ascending id and every child's id exceeds its
        parent's, as `pdt_refute` and `to_text` lay a proof out, the listing
        is already both orders, and one pass over the edges shows it.  Any
        other listing is ordered by the DFS of `_reverse_postorder`.
        """
        by_id = {}
        for node in nodes:
            if node.node_id in by_id:
                raise ValueError(f"duplicate node id {node.node_id}")
            by_id[node.node_id] = node
        ids = list(by_id)  # the listing's ids, in its order
        ascending = all(map(operator.lt, ids, ids[1:]))
        for node in nodes:
            for c in node.children():
                if c not in by_id:
                    raise DanglingNodeError(f"node {node.node_id} references unknown id {c}")
                if c <= node.node_id:
                    ascending = False
        nodes = tuple(nodes)
        if ascending:
            return cls(width, nodes, by_id, nodes, nodes)
        id_order = tuple(sorted(nodes, key=lambda n: n.node_id))
        return cls(width, nodes, by_id, _reverse_postorder(nodes, by_id), id_order)

    @property
    def root(self) -> ProofNode:
        return self.nodes[0]


def _reverse_postorder(nodes: Sequence[ProofNode], by_id: dict[int, ProofNode]) -> tuple[ProofNode, ...]:
    """One iterative DFS from each unvisited node in turn; raises CycleError on a back edge.

    A node is finished after all its children, so the reverse of the finishing
    order puts every node before its children.
    """
    state: dict[int, int] = {}  # 1 = on stack, 2 = done
    finished: list[ProofNode] = []
    for node in nodes:
        if node.node_id in state:
            continue
        state[node.node_id] = 1
        stack = [(node, iter(node.children()))]
        while stack:
            cur, it = stack[-1]
            for c in it:
                if state.get(c) == 1:
                    raise CycleError(f"cycle through node {c}")
                if c not in state:
                    state[c] = 1
                    child = by_id[c]
                    stack.append((child, iter(child.children())))
                    break
            else:
                state[cur.node_id] = 2
                finished.append(cur)
                stack.pop()
    finished.reverse()
    return tuple(finished)


def _falsifies(space: AffineSpace | f2._EmptySpace, clause: tuple[int, ...]) -> bool:
    """Whether every point of the space falsifies the clause.

    A unit equation x_v = c holds on all of a space exactly when (1 << v, c)
    is one of its reduced rows: the XOR of several rows keeps all their
    pivots.  So no negation space is built; `oracles.clause_negation_space`
    with `is_subspace` is the reference.
    """
    if space is EMPTY:
        return True
    rows = space.rows
    return all((1 << (abs(lit) - 1), int(lit < 0)) in rows for lit in clause)


_SPLIT_RULES = ("QUERY-SPLIT-0", "QUERY-SPLIT-1")


def _split_violation(space: AffineSpace | f2._EmptySpace, form: int, kid0: AffineSpace | f2._EmptySpace,
                     kid1: AffineSpace | f2._EmptySpace) -> str | None:
    """The first query rule that the children's spaces break, or None.

    Child b must be the space cut by <form, x> = b.  One reduction serves
    both sides; a child is then compared by rows with the parent's rows plus
    the reduced row (`f2._inserted_rows`), so no expected space is built.
    """
    if space is EMPTY:
        halves = (EMPTY, EMPTY)
    else:
        form, bit = space.reduce(form)
        if form:
            for side, kid in enumerate((kid0, kid1)):
                if kid is EMPTY or kid.width != space.width or kid.rows != f2._inserted_rows(space.rows, form, bit ^ side):
                    return _SPLIT_RULES[side]
            return None
        halves = (EMPTY, space) if bit else (space, EMPTY)
    for side, kid in enumerate((kid0, kid1)):
        if kid != halves[side]:
            return _SPLIT_RULES[side]
    return None


def parse_text(text: str) -> ProofDag:
    """Read a proof; a malformed line raises `ParseError` naming it."""
    width = declared = None
    read: list[tuple[dict, list[tuple[int, int]]]] = []  # per node, its fields and its eq rows
    with Lines(text, "#") as lines:
        for fields in lines:
            if fields[0] == "rxp":
                if width is not None:
                    raise ValueError("second rxp header")
                width_s, nodes_s = expect(fields, "rxp <width> <nodes>")
                width, declared = parse_int(width_s, False), parse_int(nodes_s, False)
            elif width is None:
                raise ValueError("missing rxp header")
            elif fields[0] == "eq":
                if not read:
                    raise ValueError("eq line outside a node")
                form, bit = expect(fields, "eq <form> <bit>")
                read[-1][1].append((parse_bits(form, width), parse_bits(bit, 1)))
            elif fields[1:2] == ["k=LEAF"]:
                node_id, clause = expect(fields, "<id> k=LEAF <clause>")
                read.append((dict(node_id=parse_int(node_id, False), kind=LEAF, clause=parse_int(clause, False)), []))
            elif fields[1:2] == ["k=WEAK"]:
                node_id, child = expect(fields, "<id> k=WEAK <child>")
                read.append((dict(node_id=parse_int(node_id, False), kind=WEAK, child=parse_int(child, False)), []))
            elif fields[1:2] == ["k=QRY"]:
                node_id, form, c0, c1 = expect(fields, "<id> k=QRY <form> <child0> <child1>")
                form = parse_bits(form, width)
                node_id, c0, c1 = (parse_int(x, False) for x in (node_id, c0, c1))
                read.append((dict(node_id=node_id, kind=QRY, form=form, child0=c0, child1=c1), []))
            else:
                raise ValueError(f"expected a node line `<id> k=LEAF|WEAK|QRY ...`, got {' '.join(fields)!r}")
        if width is None:
            raise ValueError("missing rxp header")
        if declared != len(read):
            raise ValueError(f"declared {declared} nodes, found {len(read)}")
    return ProofDag.build(width, [ProofNode(space=space_from_pairs(width, rows), **fields) for fields, rows in read])


def to_text(dag: ProofDag) -> str:
    lines = [f"rxp {dag.width} {len(dag.nodes)}"]
    for node in dag.nodes:
        if node.kind == LEAF:
            lines.append(f"{node.node_id} k=LEAF {node.clause}")
        elif node.kind == WEAK:
            lines.append(f"{node.node_id} k=WEAK {node.child}")
        else:
            lines.append(
                f"{node.node_id} k=QRY {bits_to_string(node.form, dag.width)} {node.child0} {node.child1}"
            )
        if node.space is not EMPTY:
            for form, bit in node.space.rows:
                lines.append(f"eq {bits_to_string(form, dag.width)} {bit}")
        else:
            # any inconsistent pair denotes the empty space
            zero = "0" * dag.width
            lines.append(f"eq {zero} 1")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    node_id: int | None = None
    rule: str | None = None

    def __str__(self) -> str:
        return "OK" if self.ok else f"violation(node {self.node_id}, {self.rule})"


def check(dag: ProofDag, cnf: Cnf) -> CheckResult:
    """Verify the four affine-DAG conditions against the CNF.

    Violations are reported for the smallest offending node id, after the
    root-space condition.
    """
    if cnf.num_vars != dag.width:
        return CheckResult(False, dag.root.node_id, "WIDTH-MISMATCH")
    if dag.root.space != full_space(dag.width):
        return CheckResult(False, dag.root.node_id, "ROOT-SPACE")
    by_id = dag.by_id
    for node in dag.id_order:
        space = node.space
        if node.kind == QRY:
            rule = _split_violation(space, node.form, by_id[node.child0].space, by_id[node.child1].space)
            if rule is not None:
                return CheckResult(False, node.node_id, rule)
        elif node.kind == WEAK:
            if not is_subspace(space, by_id[node.child].space):
                return CheckResult(False, node.node_id, "WEAKEN-CONTAINMENT")
        else:
            if node.clause is None or not 0 <= node.clause < len(cnf.clauses):
                return CheckResult(False, node.node_id, "LEAF-CLAUSE-RANGE")
            if not _falsifies(space, cnf.clauses[node.clause]):
                return CheckResult(False, node.node_id, "LEAF-FALSIFICATION")
    return CheckResult(True)


def metrics(dag: ProofDag) -> tuple[int, int]:
    """(size, depth): node count and the deepest query-weighted root path.

    Query nodes add one to the paths through them; weakening nodes are free.
    Only paths starting at the root count.  `dag.order` puts every node
    before its children, so one pass settles each node's deepest path.
    """
    best = dict.fromkeys(dag.by_id, -1)
    best[dag.root.node_id] = 0
    depth = 0
    for node in dag.order:
        here = best[node.node_id]
        if here < 0:
            continue
        if node.kind == QRY:
            here += 1
        depth = max(depth, here)
        for c in node.children():
            best[c] = max(best[c], here)
    return len(dag.nodes), depth


def pdt_refute(cnf: Cnf) -> ProofDag:
    """Tree-like refutation by coordinate querying with early falsification leaves.

    Queries variables in ascending order; a branch closes as soon as its fixed
    coordinates falsify some clause, and its leaf names the first such clause.
    Raises SatisfiableError with a model if the CNF has one.

    Clauses are grouped by the level at which their last variable is fixed.
    A node at level L tests only group L: its parent falsified no clause of
    a lower level, and fixing one more variable changes none of them.  The
    tree is built in preorder from an explicit stack, so no closure refers
    to itself and a dropped DAG is freed by reference counting.
    """
    n = cnf.num_vars
    if n > REFUTE_VAR_CAP:
        raise f2.EnumerationCapError(f"{n} variables exceed cap {REFUTE_VAR_CAP}")
    by_level: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    for idx, (pos, neg) in enumerate(_clause_masks(cnf)):
        by_level[(pos | neg).bit_length()].append((idx, pos, neg))
    nodes: list = []  # a query node holds its (space, form) until its child 1 is built
    child1: dict[int, int] = {}
    stack: list[tuple[int, int, AffineSpace, int | None]] = [(0, 0, full_space(n), None)]
    while stack:
        level, value, space, parent = stack.pop()
        node_id = len(nodes)
        if parent is not None:
            child1[parent] = node_id
        clause = next((idx for idx, pos, neg in by_level[level] if value & pos == 0 and value & neg == neg), None)
        if clause is not None:
            nodes.append(ProofNode(node_id, LEAF, space, clause=clause))
            continue
        if level == n:
            raise SatisfiableError(FVec(n, value))
        bit = 1 << level
        nodes.append((space, bit))
        space0, space1 = space.split(bit)
        stack.append((level + 1, value | bit, space1, node_id))
        stack.append((level + 1, value, space0, None))  # child 0 is next in preorder
    for node_id, node in enumerate(nodes):
        if type(node) is tuple:
            space, bit = node
            nodes[node_id] = ProofNode(node_id, QRY, space, form=bit, child0=node_id + 1, child1=child1[node_id])
    return ProofDag.build(n, nodes)

