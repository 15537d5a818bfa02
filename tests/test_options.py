"""Every option is a configuration to cover: a defaulted parameter must have a caller that sets it,
and a CLI option a handler that reads it.

Each entry of OPTIONS names a defaulted parameter of the library and one
caller outside tests and demos (library code, the CLI, argparse or the
benchmark in perfbench/) that passes it a value other than its default.  A
parameter that only tests, demos or nothing set is a configuration the lab
never runs: remove it, or add its entry with its caller.  CLI_ENTRY is the
one exemption.
A CLI option that its command's handler never reads is one the command
would accept and ignore: declare it only where it is read.
"""
import argparse
import ast
from pathlib import Path

import resoplus
from resoplus.cli import build_parser

SRC = Path(resoplus.__file__).parent

OPTIONS = {
    "blocks._augment(usable)": "blocks.amortized_closure, which limits each search to the chosen blocks' columns",
    "cli.OneLineErrorParser.__init__(func)": "cli.build_parser, which gives each command its handler",
    "cli.OneLineErrorParser.__init__(reject)": "cli.build_parser (the graph source of gen-graph, hardness-experiment)",
    "cli._shared(exclusive)": "cli.build_parser (--ip or --gadget)",
    "cli.OneLineErrorParser.parse_known_args(args)": "argparse's parse_args and subparser action, which pass both",
    "cli.OneLineErrorParser.parse_known_args(namespace)": "argparse's parse_args and subparser action, which pass both",
    "dtfooling.exact_root_distribution(condition)": "cli.cmd_root_dist (--condition)",
    "f2._tagged_reduce(tag)": "f2._tagged_insert",
    "f2.AffineSpace.reduce(bit)": "f2.AffineSpace.with_equation",
    "lemmalab.nested_pair_with_gap(concentrate_block)": "cli.cmd_conditional_fooling",
    "pdt.Query.__init__(note)": "pdt._Stage.fill",
    "pdt.Query.__init__(space)": "pdt._Stage.fill",
    "pdt.exact_lifted_root_law(conditioning)": "perfbench/workloads.py (tseitin-certify's lifted-law items)",
    "pdt.lifted_hardness_experiment(budget)": "cli.cmd_hardness_experiment (--budget)",
    "pdt.hardness_experiment(strategies)": "cli.cmd_hardness_experiment (--strategy)",
    "pdt.hardness_experiment(budget)": "cli.cmd_hardness_experiment (--budget)",
    "tseitin.tseitin_cnf(charge)": "cli.cmd_gen_tseitin (--charge)",
    "tseitin.tseitin_cnf(contradiction)": "cli.cmd_gen_tseitin (--no-contradiction)",
}

# The one option that only tests set: tests/test_cli.py drives the CLI by passing each
# command line to main, where the installed program reads sys.argv.
CLI_ENTRY = "cli.main(argv)"


def _defaulted(node, prefix: str):
    """'module.qualname(param)' for every defaulted parameter of the functions under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaulted(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from (f"{prefix}{child.name}({name})" for name in names)
            yield from _defaulted(child, f"{prefix}{child.name}.")


def _outside_tests(caller: str) -> bool:
    """Whether the caller named is library code, the CLI, argparse or the benchmark."""
    head = caller.split()[0]
    return head == "argparse's" or head.startswith("perfbench/") or (SRC / f"{head.split('.')[0]}.py").is_file()


def test_every_option_names_a_caller_that_sets_it():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        found.update(_defaulted(ast.parse(path.read_text(), filename=str(path)), f"{module}."))
    test_only = sorted(option for option, caller in OPTIONS.items() if not _outside_tests(caller))
    assert not test_only, "options that only tests or demos set: " + ", ".join(test_only)
    extra = sorted(found - OPTIONS.keys() - {CLI_ENTRY})
    gone = sorted((OPTIONS.keys() | {CLI_ENTRY}) - found)
    assert not extra, "options with no caller that sets them: " + ", ".join(extra)
    assert not gone, "entries for options that no longer exist: " + ", ".join(gone)


def _handler_parsers(parser, path: str):
    """(command path, parser) for every parser that runs a handler: each command and each lemma."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _handler_parsers(sub, f"{path} {name}")
    if parser.get_default("func") is not None:
        yield path, parser


def _args_read(name: str, defs: dict, seen: set) -> set:
    """The `args.<dest>` that the top-level definition `name` of cli.py reads, itself or
    through the top-level definitions it names (helpers, and tables such as _GRAPH_TYPES)."""
    seen.add(name)
    found = set()
    for node in ast.walk(defs[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            if isinstance(node.ctx, ast.Load):
                found.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in defs and node.id not in seen:
            found |= _args_read(node.id, defs, seen)
    return found


def test_every_cli_option_is_read_by_its_handler():
    tree = ast.parse((SRC / "cli.py").read_text())
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((target.id, node) for target in node.targets if isinstance(target, ast.Name))
    parsers = list(_handler_parsers(build_parser(), "resoplus"))
    assert len(parsers) == 16  # eleven commands besides verify-lemma, and its five lemmas
    unread = []
    for path, parser in parsers:
        read = _args_read(parser.get_default("func").__name__, defs, set())
        declared = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        unread += [f"{path} {(a.option_strings or [a.dest])[0]}" for a in declared if a.dest not in read]
    assert not unread, "options that no handler reads: " + ", ".join(unread)
