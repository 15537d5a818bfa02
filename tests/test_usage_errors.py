"""One error rule for the CLI: every library exception for bad or out-of-scope input is a ValueError.

The CLI turns a ValueError into exit 2 and one stderr line.  The one
exception that is not such an error is `SatisfiableError`, which
`pdt-refute` reports as a failed verification (exit 1).
"""
import importlib
import inspect
import pkgutil

import pytest

import resoplus
from resoplus.cli import main
from resoplus.cnf import Cnf

NOT_USAGE_ERRORS = {"resoplus.resproof.SatisfiableError"}


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
