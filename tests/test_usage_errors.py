"""One error rule for the CLI: every library exception for bad or out-of-scope input is a ValueError.

The CLI turns a ValueError into exit 2 and one stderr line.  The one
exception that is not such an error is `SatisfiableError`, which
`pdt-refute` reports as a failed verification (exit 1).
"""
import importlib
import inspect
import pkgutil

import resoplus

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
