"""One error rule for the CLI: every library exception for bad or out-of-scope input is a ValueError.

The CLI turns a ValueError into exit 2 and one stderr line.  The two
exceptions that are not such errors are `SatisfiableError`, which
`pdt-refute` reports as a failed verification (exit 1), and
`CertificateError`, a broken certificate, which every command reports as a
failed verification in one stderr line (exit 1).
"""
import importlib
import inspect
import pkgutil

import pytest

import resoplus
from resoplus.cli import main
from resoplus.cnf import Cnf
from resoplus.tseitin import complete_graph

NOT_USAGE_ERRORS = {"resoplus.resproof.SatisfiableError", "resoplus.f2.CertificateError"}
HARDNESS = ["hardness-experiment", "--type", "k5", "--q", "1", "--trials", "1", "--seed", "1"]


def test_library_exceptions_are_value_errors():
    found = []
    for info in pkgutil.iter_modules(resoplus.__path__, prefix="resoplus."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if not (inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == info.name):
                continue
            qualified = f"{info.name}.{name}"
            if qualified not in NOT_USAGE_ERRORS and not issubclass(obj, ValueError):
                found.append(qualified)
    assert not found, "exceptions the CLI would not report as usage errors: " + ", ".join(found)


def test_a_negative_variable_count_is_usage_error(tmp_path, capsys):
    # read past, it made pdt-refute fail with an IndexError and exit 1
    cnf = tmp_path / "negative.cnf"
    cnf.write_text("p cnf -1 0\n")
    code = main(["pdt-refute", "--cnf", str(cnf), "--out", str(tmp_path / "out.rxp")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ParseError: line 1: ")
    assert not (tmp_path / "out.rxp").exists()
    with pytest.raises(ValueError, match="^variable count must be nonnegative$"):
        Cnf(-1, ())


@pytest.mark.parametrize(
    "argv, option",
    [
        (["gen-graph", "--type", "complete", "--vertices", "٥"], "--vertices"),
        (["sample-dtfooling", "--graph", "{graph}", "--samples", "+2", "--seed", "١"], "--samples"),
        (HARDNESS + ["--budget=١/٢"], "--budget"),
        (HARDNESS + ["--require-lower-bound", "٠"], "--require-lower-bound"),
    ],
)
def test_a_numeric_option_outside_ascii_decimals_is_usage_error(tmp_path, capsys, argv, option):
    # read with Python's int, Fraction and float, these wrote K5, drew two
    # samples at seed 1, and played with a budget of 1/2 and a bound of 0
    graph = tmp_path / "k5.graph"
    graph.write_text(complete_graph(5).to_text())
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main([a.format(graph=graph) for a in argv] + ["--out", str(out)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: resoplus {argv[0]}: argument {option}: ")
    assert not out.exists()


@pytest.mark.parametrize("charge, bad", [("\u0661" * 5, "\u0661"), ("1_111", "_")])
def test_a_charge_outside_ascii_bits_is_usage_error(tmp_path, capsys, charge, bad):
    # read with Python's int, the Arabic-Indic ones wrote K5's CNF and 1_111 failed inside int()
    graph = tmp_path / "k5.graph"
    graph.write_text(complete_graph(5).to_text())
    out = tmp_path / "k5.cnf"
    code = main(["gen-tseitin", "--graph", str(graph), "--charge", charge, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: ValueError: invalid bit character {bad!r}\n"
    assert not out.exists()


def test_an_empty_charge_is_usage_error(tmp_path, capsys):
    # read as if --charge were left out, it wrote K5's CNF under the all-ones charge
    graph = tmp_path / "k5.graph"
    graph.write_text(complete_graph(5).to_text())
    out = tmp_path / "k5.cnf"
    code = main(["gen-tseitin", "--graph", str(graph), "--charge", "", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: ValueError: charge must be 5 bits 0 or 1, got ()\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, option",
    [
        (["--budget=-1/2"], "--budget"),
        (["--budget", "1/0"], "--budget"),
        (["--require-lower-bound", "nan"], "--require-lower-bound"),
        (["--require-lower-bound", "inf"], "--require-lower-bound"),
        (["--require-lower-bound", "1.5"], "--require-lower-bound"),
        (["--require-lower-bound=-0.25"], "--require-lower-bound"),
    ],
)
def test_a_budget_or_bound_out_of_range_is_usage_error(capsys, extra, option):
    # read past, a negative budget was played, 1/0 raised ZeroDivisionError,
    # and a bound of nan failed every run with exit 1, a failed verification
    with pytest.raises(SystemExit) as exc:
        main(HARDNESS + extra)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: resoplus hardness-experiment: argument {option}: must be ")


@pytest.mark.parametrize(
    "lemma", ["exponential-sum", "uniform-coset", "conditional-fooling", "counterexample", "closure-laws"]
)
def test_each_lemma_help_names_the_lemma(capsys, lemma):
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemma", lemma, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: resoplus verify-lemma {lemma} [-h]")


@pytest.mark.parametrize("lemma", ["counterexample", "closure-laws"])
def test_csv_format_of_a_text_only_lemma_is_usage_error(capsys, lemma):
    # read past, --format csv printed the text report with exit 0; a text-only lemma has no --format
    options = {"counterexample": ["--n", "2"], "closure-laws": ["--trials", "1", "--seed", "1"]}[lemma]
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemma", lemma, *options, "--format", "csv"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == "error: resoplus: unrecognized arguments: --format csv\n"
