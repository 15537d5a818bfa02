import hashlib

import pytest

from resoplus.cli import main
from resoplus.lemmalab import LEMMA_CSV_HEADER
from resoplus.tseitin import complete_graph, tseitin_cnf


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_graph_and_metrics(tmp_path, capsys):
    gpath = tmp_path / "k5.graph"
    code, _ = run(capsys, "gen-graph", "--type", "k5", "--out", str(gpath))
    assert code == 0
    code, out = run(capsys, "metrics", "--graph", str(gpath))
    assert code == 0
    assert "lambda: 0.250000000" in out
    assert "cheeger_ok: True" in out


def test_tseitin_lift_pipeline(tmp_path, capsys):
    gpath = tmp_path / "tri.graph"
    run(capsys, "gen-graph", "--type", "cycle", "--vertices", "3", "--out", str(gpath))
    cpath = tmp_path / "tri.cnf"
    code, _ = run(capsys, "gen-tseitin", "--graph", str(gpath), "--out", str(cpath))
    assert code == 0
    assert cpath.read_text().splitlines()[0] == "p cnf 3 6"
    lpath = tmp_path / "tri_lift.cnf"
    code, _ = run(capsys, "lift", "--cnf", str(cpath), "--ip", "2", "--out", str(lpath))
    assert code == 0
    assert lpath.read_text().splitlines()[0].startswith("p cnf 6 ")


def test_gadget_spectrum_reports_max(capsys):
    code, out = run(capsys, "gadget-spectrum", "--ip", "8")
    assert code == 0
    assert "max_coefficient: 1/16" in out
    code, out = run(capsys, "gadget-spectrum", "--ip", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "S_mask,numerator,denominator"


def test_sample_and_root_dist(tmp_path, capsys):
    gpath = tmp_path / "k5.graph"
    run(capsys, "gen-graph", "--type", "k5", "--out", str(gpath))
    code, out = run(capsys, "sample-dtfooling", "--graph", str(gpath), "--samples", "5", "--seed", "3")
    assert code == 0
    assert out.splitlines()[0] == "seed,root,assignment"
    assert len(out.splitlines()) == 6
    code, out = run(capsys, "root-dist", "--graph", str(gpath))
    assert code == 0
    assert "0,1,5" in out and "uniform_ok,1" in out


def test_proof_commands(tmp_path, capsys):
    gpath = tmp_path / "tri.graph"
    run(capsys, "gen-graph", "--type", "cycle", "--vertices", "3", "--out", str(gpath))
    cpath = tmp_path / "tri.cnf"
    run(capsys, "gen-tseitin", "--graph", str(gpath), "--out", str(cpath))
    ppath = tmp_path / "tri.rxp"
    code, out = run(capsys, "pdt-refute", "--cnf", str(cpath), "--out", str(ppath))
    assert code == 0
    code, out = run(capsys, "check-proof", str(ppath), str(cpath))
    assert code == 0 and "OK" in out
    code, out = run(capsys, "proof-metrics", str(ppath))
    assert code == 0 and "depth:" in out
    # corrupting one rhs bit flips the exit code
    text = ppath.read_text().splitlines()
    for i, line in enumerate(text):
        if line.startswith("eq") and line.endswith("0"):
            text[i] = line[:-1] + "1"
            break
    bad = tmp_path / "bad.rxp"
    bad.write_text("\n".join(text) + "\n")
    code, out = run(capsys, "check-proof", str(bad), str(cpath))
    assert code == 1 and "violation" in out


def test_pdt_refute_satisfiable_exit_code(tmp_path, capsys):
    sat = tmp_path / "sat.cnf"
    sat.write_text("p cnf 2 1\n1 2 0\n")
    code, out = run(capsys, "pdt-refute", "--cnf", str(sat), "--out", str(tmp_path / "x.rxp"))
    assert code == 1 and "SATISFIABLE" in out


def test_verify_lemma_counterexample(capsys):
    code, out = run(capsys, "verify-lemma", "counterexample", "--n", "2", "--b", "4", "--seed", "1")
    assert code == 0
    assert "verdict: OK" in out


def test_verify_lemma_past_the_cube_cap(capsys):
    # 3 blocks of 12 bits: 36 bits, beyond any full-cube sweep
    code, out = run(capsys, "verify-lemma", "exponential-sum", "--n", "3", "--b", "12", "--seed", "5")
    assert code == 0
    assert out.count("verdict: OK") == 3
    code, out = run(capsys, "verify-lemma", "counterexample", "--n", "3", "--b", "12", "--seed", "1")
    assert code == 0
    assert "verdict: OK" in out


def test_library_cap_is_usage_error(capsys):
    # 19 free edges exceed the lifted support cap: exit 2 and one stderr line
    code = main([
        "hardness-experiment", "--lifted", "--type", "cycle", "--vertices", "19", "--q", "2", "--trials", "2",
        "--seed", "1",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "EnumerationCapError" in captured.err


def test_root_dist_counts_by_rank_past_22_free_edges(tmp_path, capsys):
    # 26 free edges: the root law is counted by rank, so no cap applies
    gpath = tmp_path / "r13.graph"
    run(capsys, "gen-graph", "--type", "random", "--vertices", "13", "--degree", "4", "--seed", "1",
        "--out", str(gpath))
    code, out = run(capsys, "root-dist", "--graph", str(gpath))
    assert code == 0
    assert "12,1,13" in out and "uniform_ok,1" in out


def test_verify_lemma_closure_laws(capsys):
    code, out = run(capsys, "verify-lemma", "closure-laws", "--trials", "120", "--seed", "5")
    assert code == 0
    assert "failures: 0" in out


def test_verify_lemma_small_scale(capsys):
    code, out = run(
        capsys, "verify-lemma", "exponential-sum", "--n", "2", "--b", "8", "--seed", "5", "--count", "2"
    )
    assert code == 0
    assert out.count("verdict: OK") == 2


def test_verify_lemma_conditional_b8(capsys):
    code, out = run(
        capsys,
        "verify-lemma", "conditional-fooling", "--n", "2", "--b", "8", "--k", "1", "--seed", "7", "--count", "2",
    )
    assert code == 0


def test_verify_lemma_k2_many_draws(capsys):
    # the gap-2 construction must stay feasible whatever the seed draws
    for seed in ("1", "2", "3"):
        code, _ = run(
            capsys,
            "verify-lemma", "conditional-fooling", "--n", "2", "--b", "8", "--k", "2",
            "--seed", seed, "--count", "3",
        )
        assert code == 0


def test_hardness_experiment_and_determinism(tmp_path, capsys):
    args = [
        "hardness-experiment", "--type", "k5", "--q", "2", "--trials", "25", "--seed", "1", "--format", "csv",
    ]
    code, out1 = run(capsys, *args)
    assert code == 0
    code, out2 = run(capsys, *args)
    assert out1 == out2
    assert out1.splitlines()[0].startswith("strategy,trial,")


@pytest.mark.parametrize(
    "extra, error",
    [
        (["--ip", "4"], "error: --ip applies only with --lifted\n"),
        (["--lifted", "--strategy", "greedy-cut"],
         "error: --strategy does not apply with --lifted, which plays random linear trees\n"),
    ],
)
def test_hardness_experiment_rejects_options_it_would_ignore(capsys, extra, error):
    argv = ["hardness-experiment", "--type", "cycle", "--vertices", "3", "--q", "2", "--trials", "2", "--seed", "1"]
    code = main(argv + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == error


def test_unknown_strategy_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hardness-experiment", "--type", "k5", "--q", "2", "--trials", "2", "--seed", "1", "--strategy", "nope"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # one line naming the choices; read past, an unknown name printed no `error:` prefix
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: resoplus hardness-experiment: argument --strategy: invalid choice: 'nope'")
    assert "greedy-cut" in captured.err and "random-edge" in captured.err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: resoplus: argument command: invalid choice: 'frobnicate'")


def test_missing_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample-dtfooling", "--graph", "x.graph", "--samples", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "error: resoplus sample-dtfooling: the following arguments are required: --seed\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["root-dist", "--graph", "{empty}"], "ParseError: line 0"),
        (["root-dist", "--graph", "{missing}"], "FileNotFoundError"),
        (["check-proof", "{empty}", "{empty}"], "ParseError: line 0"),
        (["check-proof", "{dangling}", "{empty}"], "DanglingNodeError"),
        (["gadget-spectrum", "--gadget", "{empty}"], "ParseError: line 0"),
        (["root-dist", "--graph", "{k5}", "--rho", "{isolated0}"], "InvalidAssignmentError"),
        (["sample-dtfooling", "--graph", "{k5}", "--rho", "{isolated0}", "--seed", "1"], "InvalidAssignmentError"),
        (["root-dist", "--graph", "{k5}", "--condition", "{split}"], "InconsistentConditionError"),
        (["gen-graph", "--graph", "{negative}"], "ValueError"),
        (["root-dist", "--graph", "{k5}", "--rho", "{twice}"], "ParseError: line 2"),
        (["root-dist", "--graph", "{k5}", "--condition", "{twice}"], "ParseError: line 2"),
        (["sample-dtfooling", "--graph", "{k5}", "--rho", "{twice}", "--seed", "1"], "ParseError: line 2"),
        (["gen-graph", "--graph", "{two_counts}"], "ParseError: line 2"),
        (["check-proof", "{two_headers}", "{unit_cnf}"], "ParseError: line 3"),
        (["proof-metrics", "{two_headers}"], "ParseError: line 3"),
    ],
)
def test_bad_input_file_is_usage_error(tmp_path, capsys, argv, error):
    # exit 1 means a verification failed; unreadable input is exit 2 and one line
    empty = tmp_path / "empty"
    empty.write_text("")
    dangling = tmp_path / "dangling.rxp"
    dangling.write_text("rxp 1 1\n0 k=WEAK 7\n")
    k5 = tmp_path / "k5.graph"
    k5.write_text(complete_graph(5).to_text())
    # edges 0..3 are vertex 0's: all 0 leaves it violated and cut off, so rho is invalid
    isolated0 = tmp_path / "isolated0.rho"
    isolated0.write_text("".join(f"{k} 0\n" for k in range(4)))
    # edges 0..8 all 0 leave vertices 0, 1 and 2 as separate odd components
    split = tmp_path / "split.rho"
    split.write_text("".join(f"{k} 0\n" for k in range(9)))
    negative = tmp_path / "negative.graph"
    negative.write_text("v -3\n")
    # a second line for one edge, or a second vertex count, is an error, not an override
    twice = tmp_path / "twice.rho"
    twice.write_text("0 1\n0 0\n")
    two_counts = tmp_path / "two_counts.graph"
    two_counts.write_text("v 5\nv 3\ne 0 1\n")
    # a second proof header: read past it, the nodes would form a proof that checks
    two_headers = tmp_path / "two_headers.rxp"
    two_headers.write_text("rxp 1 2\n0 k=WEAK 1\nrxp 1 2\n1 k=LEAF 0\n")
    unit_cnf = tmp_path / "unit.cnf"
    unit_cnf.write_text("p cnf 1 1\n0\n")
    paths = {
        "empty": str(empty), "missing": str(tmp_path / "missing"), "dangling": str(dangling),
        "k5": str(k5), "isolated0": str(isolated0), "split": str(split), "negative": str(negative),
        "twice": str(twice), "two_counts": str(two_counts), "two_headers": str(two_headers),
        "unit_cnf": str(unit_cnf),
    }
    code = main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {error}: ")


@pytest.mark.parametrize(
    "text, line",
    [
        ("rxp one 1\n0 k=LEAF 0\n", 1),  # the header's width
        ("rxp 2 1\n0 k=LEAF 0\neq 10 x\n", 3),  # an equation's bit
    ],
)
def test_a_malformed_proof_number_names_its_line(tmp_path, capsys, text, line):
    proof = tmp_path / "bad.rxp"
    proof.write_text(text)
    code = main(["proof-metrics", str(proof)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: ParseError: line {line}: ")


@pytest.mark.parametrize("text", ["v\n", "v 3 4\n", "v 2\ne 0\n", "v 3\ne 0 1 2\n"])
def test_a_graph_line_with_the_wrong_field_count_is_usage_error(tmp_path, capsys, text):
    # too few fields would be read past the end of the line, and extra ones ignored
    graph = tmp_path / "bad.graph"
    graph.write_text(text)
    code = main(["metrics", "--graph", str(graph)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    last = text.splitlines()[-1]
    form = {"v": "v <count>", "e": "e <u> <w>"}[last[0]]
    assert captured.err == f"error: ParseError: line {len(text.splitlines())}: expected `{form}`, got {last!r}\n"


# a refutation of x1 & ~x1; WEAK_UNIT puts a weakening above it
UNIT_PROOF = "rxp 1 3\n0 k=QRY 1 1 2\n1 k=LEAF 0\neq 1 0\n2 k=LEAF 1\neq 1 1\n"
WEAK_UNIT = "rxp 1 4\n0 k=WEAK 1\n1 k=QRY 1 2 3\n2 k=LEAF 0\neq 1 0\n3 k=LEAF 1\neq 1 1\n"


@pytest.mark.parametrize(
    "argv, text, line",
    [
        (["root-dist", "--graph", "{k5}", "--rho", "{bad}"], "0 1\n0\n", 2),
        (["root-dist", "--graph", "{k5}", "--rho", "{bad}"], "0 1 1\n", 1),
        (["root-dist", "--graph", "{k5}", "--rho", "{bad}"], "# edge 0\n0 x\n", 2),
        (["root-dist", "--graph", "{k5}", "--rho", "{bad}"], "0 2\n", 1),
        (["metrics", "--graph", "{bad}"], "v 3\ne 0 x\n", 2),
        (["metrics", "--graph", "{bad}"], "v x\n", 1),
        (["lift", "--cnf", "{bad}", "--ip", "2"], "p cnf 1 1\n1 0\np cnf 1 1\n", 3),
        (["lift", "--cnf", "{bad}", "--ip", "2"], "p cnf 1 1\nx 0\n", 2),
        (["gadget-spectrum", "--gadget", "{bad}"], "2\n0001\n1\n", 3),
        (["check-proof", "{bad}", "{unit}"], UNIT_PROOF.replace("eq 1 0", "eq 1 2"), 4),
        (["check-proof", "{bad}", "{unit}"], UNIT_PROOF.replace("eq 1 1", "eq 1 -1"), 6),
        (["check-proof", "{bad}", "{unit}"], UNIT_PROOF.replace("k=LEAF 0", "k=LEAF 0 9"), 3),
        (["check-proof", "{bad}", "{unit}"], WEAK_UNIT.replace("k=WEAK 1", "k=WEAK 1 9"), 2),
        (["check-proof", "{bad}", "{unit}"], UNIT_PROOF.replace("k=QRY 1 1 2", "k=QRY 1 1 2 9"), 2),
        # numbers that Python's int reads, and the parent read
        (["metrics", "--graph", "{bad}"], "v \u0663\ne 0 1\n", 1),  # an Arabic-Indic three
        (["metrics", "--graph", "{bad}"], "v +3\n", 1),
        (["metrics", "--graph", "{bad}"], "v 3\ne 0 1_0\n", 2),
        (["lift", "--cnf", "{bad}", "--ip", "2"], "p cnf 1 1\n+1 0\n", 2),
        (["proof-metrics", "{bad}"], "rxp 1 1\n\uff10 k=LEAF 0\n", 2),  # a full-width zero
    ],
)
def test_malformed_input_names_its_line(tmp_path, capsys, argv, text, line):
    # each of these read past the flaw at the parent; the proofs even checked OK
    bad = tmp_path / "bad"
    bad.write_text(text, encoding="utf-8")
    k5 = tmp_path / "k5.graph"
    k5.write_text(complete_graph(5).to_text())
    unit = tmp_path / "unit.cnf"
    unit.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code = main([a.format(bad=bad, k5=k5, unit=unit) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: ParseError: line {line}: ")


def test_well_formed_unit_proofs_check(tmp_path, capsys):
    unit = tmp_path / "unit.cnf"
    unit.write_text("p cnf 1 2\n1 0\n-1 0\n")
    for text in (UNIT_PROOF, WEAK_UNIT):
        proof = tmp_path / "unit.rxp"
        proof.write_text(text)
        code, out = run(capsys, "check-proof", str(proof), str(unit))
        assert code == 0 and out == "OK\n"


def test_a_charge_entry_other_than_a_bit_is_usage_error(tmp_path, capsys):
    # 3 used to be read as 3 & 1, so 31111 wrote the CNF of 11111
    k5 = tmp_path / "k5.graph"
    k5.write_text(complete_graph(5).to_text())
    code = main(["gen-tseitin", "--graph", str(k5), "--charge", "31111"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: ValueError: charge must be 5 bits 0 or 1, got (3, 1, 1, 1, 1)\n"


def test_metrics_of_an_edgeless_graph_is_usage_error(tmp_path, capsys):
    # the normalized eigenvalue divides by the degree
    graph = tmp_path / "edgeless.graph"
    graph.write_text("v 3\n")
    code = main(["metrics", "--graph", str(graph)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: ValueError: expander metrics require at least one edge\n"


def test_lifted_hardness_csv_is_pinned(capsys):
    # the lifted CLI path end to end: random linear trees of depth q, block-completed, in the coin game
    code, out = run(
        capsys, "hardness-experiment", "--lifted", "--type", "cycle", "--vertices", "5", "--ip", "4",
        "--q", "4", "--trials", "100", "--seed", "7", "--format", "csv",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "30ce72d0dc62c7fc"


def test_random_graph_without_seed_says_why(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-graph", "--type", "random"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--seed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-graph", "--type", "random", "--seed", "-1"],
        ["verify-lemma", "closure-laws", "--seed", "-7"],
        ["hardness-experiment", "--type", "k5", "--q", "2", "--trials", "5", "--seed", "-1"],
        ["hardness-experiment", "--type", "k5", "--q", "2", "--trials", "-3", "--seed", "1"],
        ["hardness-experiment", "--lifted", "--type", "cycle", "--vertices", "3", "--q", "-1", "--trials", "2",
         "--seed", "1"],
        ["sample-dtfooling", "--graph", "x.graph", "--samples", "-2", "--seed", "1"],
        ["verify-lemma", "exponential-sum", "--count", "-1", "--seed", "1"],
        ["verify-lemma", "closure-laws", "--trials", "-1", "--seed", "1"],
    ],
)
def test_negative_seed_or_count_is_usage_error(capsys, argv):
    # random.Random(-s) repeats the stream of random.Random(s); a negative
    # count would run nothing, or recurse without end as a tree depth
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # one line, without argparse's usage block
    assert err.count("\n") == 1 and err.startswith(f"error: resoplus {argv[0]}: argument ")
    assert "must be nonnegative, got -" in err


@pytest.mark.parametrize("lemma", ["exponential-sum", "uniform-coset", "conditional-fooling"])
def test_empty_lemma_run_prints_the_csv_header(capsys, lemma):
    code, out = run(capsys, "verify-lemma", lemma, "--count", "0", "--format", "csv", "--seed", "1")
    assert code == 0
    assert out == LEMMA_CSV_HEADER + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["hardness-experiment", "--lifted", "--ip", "0", "--type", "cycle", "--vertices", "3", "--q", "2",
         "--trials", "2", "--seed", "1"],
        ["gadget-spectrum", "--ip", "0"],
        ["lift", "--cnf", "{cnf}", "--ip", "0"],
    ],
)
def test_ip_zero_is_usage_error(tmp_path, capsys, argv):
    # --ip 0 is an arity to reject, not a missing --ip
    cnf = tmp_path / "unit.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    code = main([a.format(cnf=cnf) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: ValueError: inner product needs an even arity >= 2\n"


def test_cheeger_cap_flag_is_gone(tmp_path, capsys):
    # the sweep always stops at CHEEGER_SWEEP_CAP; a larger cap asked numpy for TiBs
    gpath = tmp_path / "k5.graph"
    gpath.write_text(complete_graph(5).to_text())
    with pytest.raises(SystemExit) as exc:
        main(["metrics", "--graph", str(gpath), "--cheeger-cap", "40"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "error: resoplus: unrecognized arguments: --cheeger-cap 40\n"


def test_negative_vertex_count_is_usage_error(capsys):
    code = main(["gen-graph", "--type", "complete", "--vertices", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: ValueError: vertex count must be nonnegative\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gadget-spectrum", "--ip", "26"],
        ["lift", "--cnf", "{cnf}", "--ip", "26"],
        ["hardness-experiment", "--lifted", "--ip", "26", "--type", "cycle", "--vertices", "3", "--q", "2",
         "--trials", "2", "--seed", "1"],
        ["verify-lemma", "exponential-sum", "--b", "26", "--seed", "1"],
    ],
)
def test_arity_past_the_spectrum_cap_is_usage_error(tmp_path, capsys, argv):
    # the 2^b-entry table is never built: the arity is checked first
    cnf = tmp_path / "unit.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    code = main([a.format(cnf=cnf) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: ValueError: arity 26 exceeds spectrum cap 24\n"


def test_lift_past_the_clause_cap_is_usage_error(tmp_path, capsys):
    # IP_12 turns each width-4 K5 clause into about 2^44 clauses; they are counted, not written
    cnf = tmp_path / "k5.cnf"
    cnf.write_text(tseitin_cnf(complete_graph(5)).cnf.to_dimacs())
    code = main(["lift", "--cnf", str(cnf), "--ip", "12", "--out", str(tmp_path / "lifted.cnf")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ValueError: lifting writes ") and "above cap 1048576" in captured.err
    assert not (tmp_path / "lifted.cnf").exists()
