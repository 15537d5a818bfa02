"""Command-line front end.

Exit codes: 0 when every assertion made by the command holds, 1 when a
verification fails (with the offending report printed), 2 on usage errors,
on unreadable or malformed input files and on library errors for
out-of-scope input (a cap exceeded, an empty space or preimage, an unsafe
space), reported in one line on stderr.
Stochastic commands require an explicit --seed so reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import dtfooling, lemmalab, pdt, resproof, tseitin
from .blocks import BlockLayout
from .cnf import Cnf
from .f2 import FVec
from .gadget import Gadget, ip_gadget, lift_cnf, walsh_spectrum
from ._text import parse_int


def _read(path) -> str:
    """The text of an input file; an optional input left out reads as the empty text."""
    if path is None:
        return ""
    with open(path) as fh:
        return fh.read()


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_GRAPH_TYPES = {
    "k5": lambda args: tseitin.complete_graph(5),
    "k7": lambda args: tseitin.complete_graph(7),
    "complete": lambda args: tseitin.complete_graph(args.vertices),
    "cycle": lambda args: tseitin.cycle_graph(args.vertices),
    "random": lambda args: tseitin.random_regular_graph(args.vertices, args.degree, args.seed),
}


def _graph_from_args(args) -> tseitin.Graph:
    if args.graph:
        return tseitin.Graph.from_text(_read(args.graph))
    if args.type == "random" and args.seed is None:
        print("error: --type random needs --seed", file=sys.stderr)
        raise SystemExit(2)
    return _GRAPH_TYPES[args.type](args)


def _gadget_from_args(args) -> Gadget:
    if getattr(args, "ip", None) is not None:
        return ip_gadget(args.ip)
    if getattr(args, "gadget", None):
        return Gadget.from_text(_read(args.gadget))
    print("error: need --ip B or --gadget FILE", file=sys.stderr)
    raise SystemExit(2)


def cmd_gen_graph(args) -> int:
    g = _graph_from_args(args)
    _emit(g.to_text(), args.out)
    if args.out:
        print(f"wrote {g.num_vertices} vertices, {g.num_edges} edges to {args.out}")
    return 0


def cmd_metrics(args) -> int:
    g = tseitin.Graph.from_text(_read(args.graph))
    m = tseitin.expander_metrics(g)
    lines = [
        f"vertex_count: {g.num_vertices}",
        f"edge_count: {g.num_edges}",
        f"degree: {m.degree}",
        f"lambda: {m.lambda_norm:.9f}",
        f"cheeger_ok: {'skipped' if m.cheeger_ok is None else m.cheeger_ok}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gen_tseitin(args) -> int:
    g = tseitin.Graph.from_text(_read(args.graph))
    charge = tuple(map(int, args.charge)) if args.charge else None
    t = tseitin.tseitin_cnf(g, charge=charge, contradiction=not args.no_contradiction)
    _emit(t.cnf.to_dimacs(), args.out)
    return 0


def cmd_lift(args) -> int:
    base = Cnf.from_dimacs(_read(args.cnf))
    g = _gadget_from_args(args)
    lifted = lift_cnf(base, g)
    _emit(lifted.to_dimacs(), args.out)
    return 0


def cmd_gadget_spectrum(args) -> int:
    g = _gadget_from_args(args)
    spec = walsh_spectrum(g)
    peak = spec.max_abs()
    if args.format == "csv":
        _emit(spec.to_csv(), args.out)
        if args.out:
            print(f"max_coefficient: {peak}")
    else:
        _emit(f"arity: {g.b}\nmax_coefficient: {peak}\n", args.out)
    return 0


def cmd_sample_dtfooling(args) -> int:
    g = tseitin.Graph.from_text(_read(args.graph))
    rho = tseitin.EdgePartialAssignment.from_text(g, _read(args.rho))
    rng = random.Random(args.seed)
    lines = ["seed,root,assignment"]
    ok = True
    for i in range(args.samples):
        s = dtfooling.sample(rho, rng)
        r = dtfooling.root_of(g, s.assignment.bits)
        ok &= r == s.root
        lines.append(f"{args.seed},{s.root},{s.assignment.to_string()}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_root_dist(args) -> int:
    g = tseitin.Graph.from_text(_read(args.graph))
    rho = tseitin.EdgePartialAssignment.from_text(g, _read(args.rho))
    condition = tseitin.EdgePartialAssignment.from_text(g, _read(args.condition))
    report = dtfooling.exact_root_distribution(rho, condition.as_dict())
    text = report.to_csv()
    text += f"uniform_ok,{int(report.uniform_ok)}\nequal_counts_ok,{int(report.equal_counts_ok)}\n"
    _emit(text, args.out)
    return 0 if report.ok else 1


def cmd_check_proof(args) -> int:
    dag = resproof.parse_text(_read(args.proof))
    cnf = Cnf.from_dimacs(_read(args.cnf))
    result = resproof.check(dag, cnf)
    print(str(result))
    return 0 if result.ok else 1


def cmd_proof_metrics(args) -> int:
    dag = resproof.parse_text(_read(args.proof))
    size, depth = resproof.metrics(dag)
    print(f"size: {size}")
    print(f"depth: {depth}")
    return 0


def cmd_pdt_refute(args) -> int:
    cnf = Cnf.from_dimacs(_read(args.cnf))
    try:
        dag = resproof.pdt_refute(cnf)
    except resproof.SatisfiableError as exc:
        print(f"SATISFIABLE: model {exc.model.to_string()}")
        return 1
    _emit(resproof.to_text(dag), args.out)
    result = resproof.check(dag, cnf)
    print(f"wrote refutation: size={len(dag.nodes)} check={result}")
    return 0 if result.ok else 1


def _verify_safe_space_lemma(args, check) -> list[lemmalab.LemmaReport]:
    """Run check(space, layout, gadget, z) on --count random safe spaces."""
    layout = BlockLayout(args.n, args.b)
    g = ip_gadget(args.b)
    rng = random.Random(args.seed)
    reports = []
    for _ in range(args.count):
        codim = rng.randint(0, min(3, layout.n))
        space = lemmalab.random_safe_space(layout, codim, rng)
        z = FVec(layout.n, rng.getrandbits(layout.n))
        reports.append(check(space, layout, g, z))
    return reports


def _verify_conditional_fooling(args) -> list[lemmalab.LemmaReport]:
    layout = BlockLayout(args.n, args.b)
    g = ip_gadget(args.b)
    rng = random.Random(args.seed)
    reports = []
    # the amortized closure of A plus the gap cannot exceed the block count
    slack = layout.n - args.k
    for i in range(args.count):
        concentrate = 0 if (args.k == 1 and i % 3 == 2 and slack >= 1) else None
        base_codim = rng.randint(0, min(1, slack)) if concentrate is None else 3
        a, b_sp, y, z = lemmalab.nested_pair_with_gap(layout, g, args.k, base_codim, rng, concentrate)
        reports.append(lemmalab.check_conditional_fooling(b_sp, a, layout, g, y, z, args.k))
    return reports


def cmd_verify_lemma(args) -> int:
    if args.lemma == "closure-laws":
        report = lemmalab.closure_law_suite(args.trials, args.seed)
        _emit(report.to_text(), args.out)
        return 0 if report.ok else 1
    if args.lemma == "counterexample":
        rep = lemmalab.counterexample_demo(args.n, ip_gadget(args.b))
        _emit(rep.to_text(), args.out)
        return 0 if rep.ok else 1
    if args.lemma == "exponential-sum":
        reports = _verify_safe_space_lemma(args, lemmalab.check_exponential_sum)
    elif args.lemma == "uniform-coset":
        reports = _verify_safe_space_lemma(args, lemmalab.check_uniform_coset)
    else:
        reports = _verify_conditional_fooling(args)
    if args.format == "csv":
        rows = [rep.to_csv().splitlines()[1] for rep in reports]
        _emit("\n".join([lemmalab.LEMMA_CSV_HEADER] + rows) + "\n", args.out)
    else:
        _emit("".join(rep.to_text() for rep in reports), args.out)
    return 0 if all(rep.ok for rep in reports) else 1


def cmd_hardness_experiment(args) -> int:
    g = _graph_from_args(args)
    budget = Fraction(args.budget) if args.budget else None
    if args.ip is not None and not args.lifted:
        print("error: --ip applies only with --lifted", file=sys.stderr)
        return 2
    if args.lifted and args.strategy:
        print("error: --strategy does not apply with --lifted, which plays random linear trees", file=sys.stderr)
        return 2
    if args.lifted:
        gadget = ip_gadget(2 if args.ip is None else args.ip)
        report = pdt.lifted_hardness_experiment(g, gadget, args.q, args.trials, args.seed, budget)
    else:
        available = pdt.default_strategies()
        strategies = {name: available[name] for name in args.strategy} if args.strategy else None
        report = pdt.hardness_experiment(
            g, q=args.q, trials=args.trials, seed=args.seed, strategies=strategies, budget=budget
        )
    if args.format == "csv":
        _emit(report.to_csv(), args.out)
    else:
        _emit(report.to_text(), args.out)
    ok = all(s.all_identities_ok for s in report.summaries)
    if args.require_lower_bound is not None:
        ok &= all(s.wilson_low >= args.require_lower_bound for s in report.summaries)
    return 0 if ok else 1


def integer(text: str) -> int:
    """An option's integer in ASCII digits, read as the text formats read theirs."""
    return parse_int(text, True)


def nonnegative_int(text: str) -> int:
    # seeds: random.Random(-s) draws the same stream as random.Random(s)
    value = integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


class OneLineErrorParser(argparse.ArgumentParser):
    """Reports a rejected command line in one stderr line, without the usage block.

    Subparsers are built from the same class, so they report the same way.
    """

    def error(self, message: str):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = OneLineErrorParser(prog="resoplus", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-graph", help="write a built-in or random regular graph")
    sp.add_argument("--type", choices=list(_GRAPH_TYPES), default="k5")
    sp.add_argument("--vertices", type=integer, default=5)
    sp.add_argument("--degree", type=integer, default=4)
    sp.add_argument("--seed", type=nonnegative_int)
    sp.add_argument("--graph", help="copy an existing graph file instead")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_gen_graph)

    sp = sub.add_parser("metrics", help="spectral and Cheeger expansion metrics")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_metrics)

    sp = sub.add_parser("gen-tseitin", help="Tseitin CNF of a graph, DIMACS out")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--charge", help="bit string, one bit per vertex (default all ones)")
    sp.add_argument("--no-contradiction", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_gen_tseitin)

    sp = sub.add_parser("lift", help="substitute a gadget into a CNF")
    sp.add_argument("--cnf", required=True)
    sp.add_argument("--ip", type=integer)
    sp.add_argument("--gadget")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("gadget-spectrum", help="exact Walsh spectrum of a gadget")
    sp.add_argument("--ip", type=integer)
    sp.add_argument("--gadget")
    sp.add_argument("--format", choices=["csv", "text"], default="text")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_gadget_spectrum)

    sp = sub.add_parser("sample-dtfooling", help="draw hard-distribution samples")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--rho")
    sp.add_argument("--samples", type=nonnegative_int, default=10)
    sp.add_argument("--seed", type=nonnegative_int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_sample_dtfooling)

    sp = sub.add_parser("root-dist", help="exact conditional root law")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--rho")
    sp.add_argument("--condition")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_root_dist)

    sp = sub.add_parser("check-proof", help="verify a Res(+) refutation")
    sp.add_argument("proof")
    sp.add_argument("cnf")
    sp.set_defaults(func=cmd_check_proof)

    sp = sub.add_parser("proof-metrics", help="size and depth of a refutation")
    sp.add_argument("proof")
    sp.set_defaults(func=cmd_proof_metrics)

    sp = sub.add_parser("pdt-refute", help="generate a tree-like refutation")
    sp.add_argument("--cnf", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_pdt_refute)

    sp = sub.add_parser(
        "verify-lemma", help="exact lemma verification (syndrome counting, cube sweep as oracle)"
    )
    sp.add_argument(
        "lemma",
        choices=["exponential-sum", "uniform-coset", "conditional-fooling", "counterexample", "closure-laws"],
    )
    sp.add_argument("--n", type=integer, default=2)
    sp.add_argument("--b", type=integer, default=12)
    sp.add_argument("--k", type=integer, default=1)
    sp.add_argument("--count", type=nonnegative_int, default=3)
    sp.add_argument("--trials", type=nonnegative_int, default=1000)
    sp.add_argument("--seed", type=nonnegative_int, required=True)
    sp.add_argument("--format", choices=["csv", "text"], default="text")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify_lemma)

    sp = sub.add_parser("hardness-experiment", help="Monte Carlo decision-tree hardness")
    sp.add_argument("--graph")
    sp.add_argument("--type", choices=list(_GRAPH_TYPES), default="random")
    sp.add_argument("--vertices", type=integer, default=51)
    sp.add_argument("--degree", type=integer, default=6)
    sp.add_argument("--q", type=nonnegative_int, required=True)
    sp.add_argument("--trials", type=nonnegative_int, required=True)
    sp.add_argument("--seed", type=nonnegative_int, required=True)
    sp.add_argument("--strategy", action="append", choices=sorted(pdt.default_strategies()))
    sp.add_argument("--budget", help="coin budget as a fraction, default |V|/(50d)")
    sp.add_argument("--require-lower-bound", type=float)
    sp.add_argument("--lifted", action="store_true", help="coin game against random parity trees")
    sp.add_argument("--ip", type=integer, help="gadget arity for --lifted (default 2)")
    sp.add_argument("--format", choices=["csv", "text"], default="text")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_hardness_experiment)

    return p


# Every library error for unreadable, malformed or out-of-scope input (a
# cap, an empty set, an unsafe space, an invalid or inconsistent edge
# assignment) is a ValueError; a failed verification is not an error.
_USAGE_ERRORS = (OSError, ValueError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
