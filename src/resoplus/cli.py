"""Command-line front end.

Exit codes: 0 when every assertion made by the command holds, 1 when a
verification fails (with the offending report printed, or a broken
certificate as one `CertificateError` line on stderr), 2 on usage errors,
on unreadable or malformed input files and on library errors for
out-of-scope input (a cap exceeded, an empty space or preimage, an unsafe
space), reported in one line on stderr.
Stochastic commands require an explicit --seed so reruns are byte-identical.
Each command, and each lemma, accepts only the options its handler reads.
"""
from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import dtfooling, lemmalab, pdt, resproof, tseitin
from .blocks import BlockLayout
from .cnf import Cnf
from .f2 import CertificateError, FVec
from .gadget import Gadget, ip_gadget, lift_cnf, walsh_spectrum
from ._text import parse_bits, parse_int


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


# each --type: the options it reads besides --type, and the graph it builds
_GRAPH_TYPES = {
    "k5": ((), lambda args: tseitin.complete_graph(5)),
    "k7": ((), lambda args: tseitin.complete_graph(7)),
    "complete": (("vertices",), lambda args: tseitin.complete_graph(args.vertices)),
    "cycle": (("vertices",), lambda args: tseitin.cycle_graph(args.vertices)),
    "random": (
        ("vertices", "degree", "seed"), lambda args: tseitin.random_regular_graph(args.vertices, args.degree, args.seed)
    ),
}


def _graph_from_args(args) -> tseitin.Graph:
    if args.graph is not None:
        return tseitin.Graph.from_text(_read(args.graph))
    return _GRAPH_TYPES[args.type][1](args)


def _unread_graph_options(args) -> str | None:
    """Why the graph source rejects the line, or None; fills in the defaults of what was left out."""
    kind, defaults = args.graph_defaults
    if args.graph is None:
        args.type = args.type or kind
    source, reads = (f"--type {args.type}", _GRAPH_TYPES[args.type][0]) if args.type else ("--graph", ())
    for name, default in defaults.items():
        if getattr(args, name) is None:
            if default is None and name in reads:
                return f"{source} needs --{name}"
            setattr(args, name, default)
        elif name not in reads:
            return f"argument --{name}: not read by {source}"
    return None


def _unread_hardness_options(args) -> str | None:
    """Why hardness-experiment rejects the line, or None: --ip needs --lifted, then the graph source's checks."""
    if args.ip is not None and not args.lifted:
        return "argument --ip: only read with --lifted"
    return _unread_graph_options(args)


def _gadget_from_args(args) -> Gadget:
    return ip_gadget(args.ip) if args.ip is not None else Gadget.from_text(_read(args.gadget))


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
    charge = tuple(parse_bits(bit, 1) for bit in args.charge) if args.charge is not None else None
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


def _sampled_lemma(args, draw) -> int:
    """Report draw(i, layout, gadget, rng), the lemma's check of its i-th draw, for i < --count."""
    layout = BlockLayout(args.n, args.b)
    g = ip_gadget(args.b)
    rng = random.Random(args.seed)
    reports = [draw(i, layout, g, rng) for i in range(args.count)]
    if args.format == "csv":
        rows = [rep.to_csv().splitlines()[1] for rep in reports]
        _emit("\n".join([lemmalab.LEMMA_CSV_HEADER] + rows) + "\n", args.out)
    else:
        _emit("".join(rep.to_text() for rep in reports), args.out)
    return 0 if all(rep.ok for rep in reports) else 1


def cmd_safe_space_lemma(args) -> int:
    """Run the lemma's check(space, layout, gadget, z) on random safe spaces."""
    def draw(i, layout, g, rng):
        codim = rng.randint(0, min(3, layout.n))
        space = lemmalab.random_safe_space(layout, codim, rng)
        z = FVec(layout.n, rng.getrandbits(layout.n))
        return args.check(space, layout, g, z)
    return _sampled_lemma(args, draw)


def cmd_conditional_fooling(args) -> int:
    def draw(i, layout, g, rng):
        # the amortized closure of A plus the gap cannot exceed the block count
        slack = layout.n - args.k
        concentrate = 0 if (args.k == 1 and i % 3 == 2 and slack >= 1) else None
        base_codim = rng.randint(0, min(1, slack)) if concentrate is None else 3
        a, b_sp, y, z = lemmalab.nested_pair_with_gap(layout, g, args.k, base_codim, rng, concentrate)
        return lemmalab.check_conditional_fooling(b_sp, a, layout, g, y, z, args.k)
    return _sampled_lemma(args, draw)


def cmd_counterexample(args) -> int:
    report = lemmalab.counterexample_demo(args.n, ip_gadget(args.b))
    _emit(report.to_text(), args.out)
    return 0 if report.ok else 1


def cmd_closure_laws(args) -> int:
    report = lemmalab.closure_law_suite(args.trials, args.seed)
    _emit(report.to_text(), args.out)
    return 0 if report.ok else 1


def cmd_hardness_experiment(args) -> int:
    g = _graph_from_args(args)
    if args.lifted:
        gadget = ip_gadget(2 if args.ip is None else args.ip)
        report = pdt.lifted_hardness_experiment(g, gadget, args.q, args.trials, args.seed, args.budget)
    else:
        available = pdt.default_strategies()
        strategies = {name: available[name] for name in args.strategy} if args.strategy else None
        report = pdt.hardness_experiment(
            g, q=args.q, trials=args.trials, seed=args.seed, strategies=strategies, budget=args.budget
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


def budget(text: str) -> Fraction:
    """A nonnegative fraction `p` or `p/q`, each part in ASCII digits (`parse_int`)."""
    p, *q = text.split("/", 1)
    num, den = parse_int(p, True), parse_int(q[0], False) if q else 1
    if num < 0 or den == 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative fraction, got {text}")
    return Fraction(num, den)


def probability(text: str) -> float:
    """A number in [0, 1] in ASCII characters, read by Python's `float`."""
    value = float(text if text.isascii() else "nan")
    if not 0 <= value <= 1:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text!r}")
    return value


class OneLineErrorParser(argparse.ArgumentParser):
    """Reports a rejected command line in one stderr line, without the usage block.

    Subparsers are built from the same class, so they report the same way.  A parser
    runs `func(args)`; `reject(args)` says why it rejects a line whose options each parse.
    """

    def __init__(self, *args, func=None, reject=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.reject = reject
        self.set_defaults(func=func)

    def error(self, message: str):
        self.exit(2, f"error: {self.prog}: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        problem = self.reject and self.reject(namespace)
        if problem:
            self.error(problem)
        return namespace, extras


def _shared(exclusive: bool = False, **options) -> argparse.ArgumentParser:
    """Options declared once, for the parsers that list them in `parents=`;
    with `exclusive`, exactly one of them must be given."""
    p = argparse.ArgumentParser(add_help=False)
    group = p.add_mutually_exclusive_group(required=True) if exclusive else p
    for name, kwargs in options.items():
        group.add_argument(f"--{name}", **kwargs)
    return p


def _graph_options(kind: str, **defaults) -> argparse.ArgumentParser:
    """--graph FILE or --type (default `kind`); what a type reads and is left out defaults to `defaults`."""
    p = _shared(vertices=dict(type=integer), degree=dict(type=integer))
    source = p.add_mutually_exclusive_group()
    source.add_argument("--graph", help="read the graph from a file")
    source.add_argument("--type", choices=list(_GRAPH_TYPES), help=f"default {kind}")
    p.set_defaults(graph_defaults=(kind, defaults))
    return p


def build_parser() -> argparse.ArgumentParser:
    p = OneLineErrorParser(prog="resoplus", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    out = _shared(out={})
    fmt = _shared(format=dict(choices=["csv", "text"], default="text"))
    seed = _shared(seed=dict(type=nonnegative_int, required=True))
    graph = _shared(graph=dict(required=True))
    cnf = _shared(cnf=dict(required=True))
    gadget = _shared(True, ip=dict(type=integer, help="the inner-product gadget of this arity"), gadget={})
    blocks = _shared(n=dict(type=integer, default=2), b=dict(type=integer, default=12))

    sp = sub.add_parser(
        "gen-graph", help="write a built-in or random regular graph", func=cmd_gen_graph,
        parents=[_graph_options("k5", vertices=5, degree=4, seed=None), out], reject=_unread_graph_options,
    )
    sp.add_argument("--seed", type=nonnegative_int, help="read only by --type random")
    sub.add_parser("metrics", help="spectral and Cheeger expansion metrics", func=cmd_metrics, parents=[graph, out])
    sp = sub.add_parser(
        "gen-tseitin", help="Tseitin CNF of a graph, DIMACS out", func=cmd_gen_tseitin, parents=[graph, out]
    )
    sp.add_argument("--charge", help="bits 0 or 1, one per vertex (default all ones)")
    sp.add_argument("--no-contradiction", action="store_true")
    sub.add_parser("lift", help="substitute a gadget into a CNF", func=cmd_lift, parents=[cnf, gadget, out])
    sub.add_parser(
        "gadget-spectrum", help="exact Walsh spectrum of a gadget", func=cmd_gadget_spectrum, parents=[gadget, fmt, out]
    )
    sp = sub.add_parser(
        "sample-dtfooling", help="draw hard-distribution samples", func=cmd_sample_dtfooling, parents=[graph, seed, out]
    )
    sp.add_argument("--rho")
    sp.add_argument("--samples", type=nonnegative_int, default=10)
    sp = sub.add_parser("root-dist", help="exact conditional root law", func=cmd_root_dist, parents=[graph, out])
    sp.add_argument("--rho")
    sp.add_argument("--condition")
    sp = sub.add_parser("check-proof", help="verify a Res(+) refutation", func=cmd_check_proof)
    sp.add_argument("proof")
    sp.add_argument("cnf")
    sp = sub.add_parser("proof-metrics", help="size and depth of a refutation", func=cmd_proof_metrics)
    sp.add_argument("proof")
    sp = sub.add_parser("pdt-refute", help="generate a tree-like refutation", func=cmd_pdt_refute, parents=[cnf])
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("verify-lemma", help="exact lemma verification (syndrome counting, cube sweep as oracle)")
    lemmas = sp.add_subparsers(dest="lemma", required=True)
    sampled = [blocks, _shared(count=dict(type=nonnegative_int, default=3)), fmt, seed, out]
    for name, check in (
        ("exponential-sum", lemmalab.check_exponential_sum), ("uniform-coset", lemmalab.check_uniform_coset)
    ):
        lemmas.add_parser(name, func=cmd_safe_space_lemma, parents=sampled).set_defaults(check=check)
    lp = lemmas.add_parser("conditional-fooling", func=cmd_conditional_fooling, parents=sampled)
    lp.add_argument("--k", type=nonnegative_int, default=1)
    lemmas.add_parser("counterexample", func=cmd_counterexample, parents=[blocks, out])
    lp = lemmas.add_parser("closure-laws", func=cmd_closure_laws, parents=[seed, out])
    lp.add_argument("--trials", type=nonnegative_int, default=1000)

    sp = sub.add_parser(
        "hardness-experiment", help="Monte Carlo decision-tree hardness", func=cmd_hardness_experiment,
        parents=[_graph_options("random", vertices=51, degree=6), fmt, out], reject=_unread_hardness_options,
    )
    sp.add_argument("--q", type=nonnegative_int, required=True)
    sp.add_argument("--trials", type=nonnegative_int, required=True)
    sp.add_argument("--seed", type=nonnegative_int, required=True)
    sp.add_argument("--budget", type=budget, help="coin budget p or p/q, default |V|/(50d)")
    sp.add_argument("--require-lower-bound", type=probability)
    kind = sp.add_mutually_exclusive_group()
    kind.add_argument("--strategy", action="append", choices=sorted(pdt.default_strategies()))
    kind.add_argument("--lifted", action="store_true", help="coin game against random parity trees")
    sp.add_argument("--ip", type=integer, help="gadget arity for --lifted (default 2)")
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
    except CertificateError as exc:  # a certificate the library built is broken: verification failed
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
