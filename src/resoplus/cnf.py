"""CNF container with DIMACS text and exhaustive sweep helpers."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import f2
from ._text import Lines, expect, parse_int


@dataclass(frozen=True)
class Cnf:
    """Clauses as tuples of nonzero 1-based signed literals."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("variable count must be nonnegative")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")

    def clause_falsified_by(self, clause_idx: int, x: int) -> bool:
        clause = self.clauses[clause_idx]
        return all((x >> (abs(l) - 1)) & 1 == (0 if l > 0 else 1) for l in clause)

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> "Cnf":
        num_vars = declared = None
        clauses: list[tuple[int, ...]] = []
        current: list[int] = []
        with Lines(text, "c") as lines:
            for fields in lines:
                if fields[0] == "p":
                    if num_vars is not None:
                        raise ValueError("second p header")
                    vars_s, clauses_s = expect(fields, "p cnf <vars> <clauses>")
                    num_vars, declared = parse_int(vars_s, False), parse_int(clauses_s, False)
                    continue
                for tok in fields:
                    lit = parse_int(tok, True)
                    if lit == 0:
                        clauses.append(tuple(current))
                        current = []
                    else:
                        current.append(lit)
            if num_vars is None:
                raise ValueError("missing p header")
            if current:
                raise ValueError("unterminated clause")
            if declared != len(clauses):
                raise ValueError(f"declared {declared} clauses, found {len(clauses)}")
        return cls(num_vars, tuple(clauses))


def _clause_masks(cnf: Cnf) -> list[tuple[int, int]]:
    masks = []
    for clause in cnf.clauses:
        pos = 0
        neg = 0
        for l in clause:
            if l > 0:
                pos |= 1 << (l - 1)
            else:
                neg |= 1 << (-l - 1)
        masks.append((pos, neg))
    return masks


def satisfying_chunks(cnf: Cnf) -> Iterator[np.ndarray]:
    """Yield arrays of satisfying assignments, sweeping all 2^num_vars points
    2^f2.CHUNK_BITS at a time (`f2.cube_chunks`)."""
    masks = _clause_masks(cnf)
    for x in f2.cube_chunks(cnf.num_vars):
        ok = np.ones(len(x), dtype=bool)
        for pos, neg in masks:
            # clause false iff all positive vars are 0 and all negative vars are 1
            false_here = np.ones(len(x), dtype=bool)
            if pos:
                false_here &= (x & np.uint64(pos)) == 0
            if neg:
                false_here &= (x & np.uint64(neg)) == np.uint64(neg)
            ok &= ~false_here
            if not ok.any():
                break
        if ok.any():
            yield x[ok]


def find_model(cnf: Cnf) -> int | None:
    """First satisfying assignment in counter order, or None."""
    for sat in satisfying_chunks(cnf):
        return int(sat[0])
    return None
