"""The one line reader of the text formats; the library reads text, only the CLI opens files."""
from typing import Iterator

from ._bits import string_to_bits


class ParseError(ValueError):
    """A malformed text; `line_no` is the offending line, or 0 for the text as a whole."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Lines:
    """The fields of each line of `text` that is not blank and not a comment.

    A comment's first field starts with `comment`: `#` in the lab's formats,
    `c` in DIMACS.  Entered around the loop that reads the lines, it reports
    a ValueError or IndexError raised there as a `ParseError` on the line
    being read, or on line 0 once every line has been read.
    """

    def __init__(self, text: str, comment: str):
        self._text, self._comment, self._line_no = text, comment, 0

    def __iter__(self) -> Iterator[list[str]]:
        for self._line_no, raw in enumerate(self._text.splitlines(), start=1):
            fields = raw.split()
            if fields and not fields[0].startswith(self._comment):
                yield fields
        self._line_no = 0

    def __enter__(self) -> "Lines":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, (ValueError, IndexError)) and not isinstance(exc, ParseError):
            raise ParseError(self._line_no, str(exc)) from None


def expect(fields: list[str], form: str) -> list[str]:
    """The <fields> of a line that must read as `form`, e.g. "p cnf <vars> <clauses>":
    one field per word, and each word outside angle brackets literally."""
    words = form.split()
    if len(fields) != len(words) or any(w != f for w, f in zip(words, fields) if w[0] != "<"):
        raise ValueError(f"expected `{form}`, got {' '.join(fields)!r}")
    return [f for w, f in zip(words, fields) if w[0] == "<"]


def parse_int(field: str, signed: bool) -> int:
    """A decimal integer in ASCII digits, with a leading `-` only when `signed`.

    Python's `int` also reads `+3`, `1_000` and non-ASCII digits such as
    the Arabic-Indic three; no format here writes them.
    """
    digits = field[1:] if signed and field[:1] == "-" else field
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected {'an' if signed else 'a nonnegative'} integer, got {field!r}")
    return int(field)


def parse_bits(field: str, width: int) -> int:
    """A string of exactly `width` characters 0 or 1, coordinate 0 leftmost; one bit is width 1."""
    if len(field) != width:
        raise ValueError(f"expected a {width}-bit string, got {field!r}")
    return string_to_bits(field)
