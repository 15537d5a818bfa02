"""Every text parser reads through the one line reader: a malformed line is a
ParseError naming it, and a well-formed text reads back to what wrote it."""
import pytest

from resoplus._text import Lines, ParseError, expect, parse_bits, parse_int
from resoplus.cnf import Cnf
from resoplus.gadget import Gadget, ip_gadget
from resoplus.resproof import parse_text, pdt_refute, to_text
from resoplus.tseitin import EdgePartialAssignment, Graph, complete_graph, tseitin_cnf

K5 = complete_graph(5)
PARSERS = {
    "graph": Graph.from_text,
    "rho": lambda text: EdgePartialAssignment.from_text(K5, text),
    "dimacs": Cnf.from_dimacs,
    "gadget": Gadget.from_text,
    "proof": parse_text,
}


@pytest.mark.parametrize(
    "fmt, text, line",
    [
        # a line kind the parser does not know
        ("graph", "v 3\nx 0 1\n", 2),
        ("dimacs", "p dnf 1 1\n1 0\n", 1),
        ("proof", "rxp 1 1\n0 k=BOGUS 0\n", 2),
        # a wrong field count, extra fields included
        ("graph", "v 3\ne 0\n", 2),
        ("graph", "v 3 4\n", 1),
        ("rho", "0\n", 1),
        ("rho", "0 1 1\n", 1),
        ("dimacs", "p cnf 1 1 1\n1 0\n", 1),
        ("gadget", "2 0001\n", 1),
        ("gadget", "2\n0001 1\n", 2),
        ("proof", "rxp 1 1\n0 k=LEAF 0 0\n", 2),
        ("proof", "rxp 1 1\n0 k=WEAK 0 0\n", 2),
        ("proof", "rxp 1 1\n0 k=QRY 1 1 2 3\n", 2),
        ("proof", "rxp 1 1\n0 k=LEAF 0\neq 1 1 1\n", 3),
        # a number that does not parse
        ("graph", "v x\n", 1),
        ("graph", "v 3\ne 0 x\n", 2),
        ("rho", "x 1\n", 1),
        ("dimacs", "p cnf 1 1\nx 0\n", 2),
        ("gadget", "x\n0001\n", 1),
        ("proof", "rxp 1 1\nx k=LEAF 0\n", 2),
        # a bit other than 0/1
        ("rho", "0 2\n", 1),
        ("rho", "0 -1\n", 1),
        ("gadget", "2\n0021\n", 2),
        ("proof", "rxp 1 1\n0 k=LEAF 0\neq 1 2\n", 3),
        ("proof", "rxp 1 1\n0 k=LEAF 0\neq 1 -1\n", 3),
        # a second header, or a second value for one key
        ("graph", "v 3\nv 3\n", 2),
        ("rho", "0 1\n# c\n0 1\n", 3),
        ("dimacs", "p cnf 1 1\n1 0\np cnf 1 1\n", 3),
        ("gadget", "2\n0001\n2\n", 3),
        ("proof", "rxp 1 1\nrxp 1 1\n", 2),
        # the text as a whole
        ("graph", "# no header\n", 0),
        ("dimacs", "1 0\n", 0),
        ("dimacs", "p cnf 1 1\n1\n", 0),
        ("gadget", "2\n", 0),
        ("proof", "", 0),
        ("proof", "rxp 1 2\n0 k=LEAF 0\n", 0),
        # a number in other than ASCII decimal digits, or a sign the field may not have
        ("graph", "v \u0663\ne 0 1\n", 1),  # an Arabic-Indic three
        ("graph", "v +3\n", 1),
        ("graph", "v 3\ne 0 1_0\n", 2),
        ("graph", "v 3\ne -0 1\n", 2),
        ("rho", "+0 1\n", 1),
        ("rho", "\u0660 1\n", 1),
        ("dimacs", "p cnf +1 1\n1 0\n", 1),
        ("dimacs", "p cnf -1 0\n", 1),
        ("dimacs", "p cnf 1 1\n+1 0\n", 2),
        ("dimacs", "p cnf 1 1\n--1 0\n", 2),
        ("dimacs", "p cnf 1 1\n-\uff11 0\n", 2),
        ("gadget", "+2\n0001\n", 1),
        ("proof", "rxp 1 1\n\uff10 k=LEAF 0\n", 2),  # a full-width zero
        ("proof", "rxp 1 1\n0 k=LEAF -0\n", 2),
        ("proof", "rxp 1 +1\n0 k=LEAF 0\n", 1),
        ("proof", "rxp 1 1\n0 k=QRY 1 1 2_0\n", 2),
    ],
)
def test_a_malformed_line_is_a_parse_error_naming_it(fmt, text, line):
    with pytest.raises(ParseError, match=f"^line {line}: ") as exc:
        PARSERS[fmt](text)
    assert exc.value.line_no == line


def test_well_formed_texts_read_back():
    g = K5
    assert Graph.from_text("# K2\nv 2\n\ne 0 1\n") == Graph.from_pairs(2, [(0, 1)])
    rho = EdgePartialAssignment.from_dict(g, {0: 1, 7: 0})
    assert EdgePartialAssignment.from_text(g, "0 1\n7 0\n") == rho
    assert EdgePartialAssignment.from_text(g, "") == EdgePartialAssignment.empty(g)
    cnf = tseitin_cnf(g).cnf
    assert Cnf.from_dimacs("c a comment\n" + cnf.to_dimacs()) == cnf
    assert Gadget.from_text("# IP_2\n2\n0001\n") == ip_gadget(2)
    text = to_text(pdt_refute(cnf))
    assert to_text(parse_text(text)) == text


def test_the_reader_skips_blanks_and_comments_and_checks_fields():
    with Lines("a b\n\n  # c d\nc e\n", "#") as lines:
        assert list(lines) == [["a", "b"], ["c", "e"]]
    assert expect(["p", "cnf", "3", "4"], "p cnf <vars> <clauses>") == ["3", "4"]
    with pytest.raises(ValueError, match="expected `p cnf <vars> <clauses>`, got 'p cnf 3'"):
        expect(["p", "cnf", "3"], "p cnf <vars> <clauses>")
    assert parse_bits("011", 3) == 0b110
    with pytest.raises(ValueError, match="expected a 1-bit string, got '10'"):
        parse_bits("10", 1)


def test_parse_int_reads_ascii_decimals_and_a_sign_only_when_signed():
    assert parse_int("0", False) == 0 and parse_int("007", False) == 7
    assert parse_int("-12", True) == -12 and parse_int("12", True) == 12
    for field in ("-1", "+1", "1_0", "", "-", " 1", "\u0663", "\uff11"):
        with pytest.raises(ValueError, match="expected a nonnegative integer"):
            parse_int(field, False)
    for field in ("+1", "--1", "-", "-+1", "1e3", "\u0663"):
        with pytest.raises(ValueError, match="expected an integer"):
            parse_int(field, True)
    # the graph header keeps its sign: Graph itself reports a negative count
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        Graph.from_text("v -3\n")
    assert Cnf.from_dimacs("p cnf 2 1\n-2 1 0\n").clauses == ((-2, 1),)
