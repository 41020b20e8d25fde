"""Command line behavior: frozen outputs, exit codes, JSON round-trips."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from stonedual import cli, duality, filtercomp, finitesgp, selftest
from stonedual import polycyclic as pc
from stonedual import thompson as th
from stonedual import words as wd
from stonedual.finitesgp import MulTable, symmetric_inverse_monoid
import tests_support_tables as TS

ROSE2 = "vertex *\nedge a * *\nedge b * *\n"
CHAIN2 = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]


def run(capsys, argv):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture()
def i2_file(tmp_path):
    p = tmp_path / "i2.tbl"
    p.write_text(symmetric_inverse_monoid(2).to_text())
    return str(p)


@pytest.fixture()
def i3_file(tmp_path):
    p = tmp_path / "i3.tbl"
    p.write_text(symmetric_inverse_monoid(3).to_text())
    return str(p)


@pytest.fixture()
def chain_file(tmp_path):
    S = MulTable(CHAIN2, zero=0, identity=2, names=["0", "e", "1"])
    p = tmp_path / "chain2.tbl"
    p.write_text(S.to_text())
    return str(p)


@pytest.fixture()
def rose_file(tmp_path):
    p = tmp_path / "rose2.graph"
    p.write_text(ROSE2)
    return str(p)


def test_poly_commands(capsys):
    rc, out, _ = run(capsys, ["poly", "mul", "-n", "2", "a^-1", "a"])
    assert rc == 0 and out == "1\n"
    rc, out, _ = run(capsys, ["poly", "meet", "-n", "2", "ab.ab^-1", "a.a^-1"])
    assert rc == 0 and out == "ab.ab^-1\n"
    rc, out, _ = run(capsys, ["poly", "leq", "-n", "2", "ab.ab^-1", "a.a^-1"])
    assert rc == 0 and out == "true\n"
    rc, out, _ = run(capsys, ["poly", "arrow", "-n", "2", "1", "a.a^-1,b.b^-1"])
    assert rc == 0 and out == "true\n"
    rc, out, _ = run(capsys, ["poly", "arrow", "-n", "2", "1", "a.a^-1"])
    assert rc == 0 and out == "false\n"


def test_mpc_commands(capsys):
    rc, out, _ = run(capsys, ["mpc", "check", "-n", "2", "a,ba,bb"])
    assert rc == 0 and out == "maximal prefix code: true\n"
    rc, out, _ = run(capsys, ["mpc", "check", "-n", "2", "a,ba"])
    assert rc == 0 and out == "maximal prefix code: false\n"
    rc, out, _ = run(capsys, ["mpc", "kraft", "-n", "2", "a,ba"])
    assert rc == 0 and out == "kraft sum: 3/4\n"
    rc, out, _ = run(capsys, ["mpc", "kraft", "-n", "2", "a,ba,bb"])
    assert rc == 0 and out == "kraft sum: 1\n"
    rc, out, _ = run(
        capsys, ["mpc", "check", "-n", "2", "-r", "2", "r1:1,r2:a,r2:b"]
    )
    assert rc == 0 and out == "maximal prefix code: true\n"
    rc, out, _ = run(capsys, ["mpc", "kraft", "-n", "2", "-r", "2", "r1:1,r2:a"])
    assert rc == 0 and out == "root 1: 1\nroot 2: 1/2\n"


def test_graph_commands(capsys, rose_file):
    rc, out, _ = run(capsys, ["graph", "analyze", rose_file])
    assert rc == 0
    assert "zero_disjunctive: true" in out.splitlines()
    assert "in_degree_zero_vertices: none" in out.splitlines()
    rc, out, _ = run(capsys, ["graph", "mul", rose_file, "a/b", "b/@*"])
    assert rc == 0 and out == "a/@*\n"
    rc, out, _ = run(capsys, ["graph", "arrow", rose_file, "@*/@*", "a/a,b/b"])
    assert rc == 0 and out == "true\n"
    rc, out, _ = run(capsys, ["graph", "arrow", rose_file, "@*/@*", "a/a"])
    assert rc == 0 and out == "false\n"


def test_finite_commands(capsys, i2_file, i3_file, chain_file):
    rc, out, _ = run(capsys, ["finite", "validate", i2_file])
    assert rc == 0 and out == "valid table: 7 elements\n"
    rc, out, _ = run(capsys, ["finite", "predicates", i2_file])
    assert rc == 0
    assert "boolean: true" in out.splitlines()
    assert "fundamental: true" in out.splitlines()
    rc, out, _ = run(capsys, ["finite", "congfree", i2_file])
    assert rc == 0 and out == "congruence-free: false\n"
    rc, out, _ = run(capsys, ["finite", "simplifying", i2_file])
    assert rc == 0 and out == "0-simplifying: true\n"
    rc, out, _ = run(capsys, ["finite", "dualize", i2_file])
    assert rc == 0
    assert out == "objects: 2\narrows: 4\nroundtrip: true\n"
    rc, out, _ = run(capsys, ["finite", "dualize", i2_file, "--dump"])
    assert rc == 0
    assert "arrow 0 1 2" in out.splitlines()
    rc, out, _ = run(capsys, ["finite", "classify", i3_file])
    assert rc == 0 and out == "I(3)\n"
    rc, out, _ = run(capsys, ["finite", "classify", chain_file])
    assert rc == 0 and out == "not symmetric: not Boolean\n"
    rc, out, _ = run(capsys, ["finite", "ideals", i2_file])
    assert rc == 0
    assert out.splitlines()[0] == "tightly closed ideals: 2"
    assert out.splitlines()[1] == "ideal {[]}"
    rc, out, _ = run(capsys, ["finite", "complete", chain_file])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "completion size: 2"
    assert lines[1] == "boolean: true"
    assert lines[2:] == ["class 0: {}", "class 1: {e}"]


def test_complete_answers_on_i4(capsys, tmp_path):
    # the completion of a Boolean table is the table itself: 209 classes
    path = tmp_path / "i4.tbl"
    path.write_text(symmetric_inverse_monoid(4).to_text())
    rc, out, err = run(capsys, ["finite", "complete", str(path)])
    assert (rc, err) == (0, "")
    assert out.splitlines()[:2] == ["completion size: 209", "boolean: true"]


def test_ideals_and_simplifying_on_the_64_element_boolean_algebra(capsys, tmp_path):
    # all subsets of 6 points: 6 components of one atom each, so 2^6 ideals,
    # one per subset of atoms, and not 0-simplifying; enumerating every
    # ideal instead would walk millions of down-sets
    table = [[i & j for j in range(64)] for i in range(64)]
    path = tmp_path / "cube6.tbl"
    path.write_text(MulTable(table, 0, 63).to_text())
    rc, out, err = run(capsys, ["finite", "ideals", str(path)])
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "tightly closed ideals: 64" and len(lines) == 65
    assert lines[1] == "ideal {s0}" and lines[-1] == "ideal {%s}" % ",".join(
        "s%d" % i for i in range(64)
    )
    rc, out, err = run(capsys, ["finite", "simplifying", str(path)])
    assert (rc, out, err) == (0, "0-simplifying: false\n", "")


def zero_with_atoms(tmp_path, k):
    """A table file: zero and k orthogonal idempotent atoms."""
    table = [[i if i == j else 0 for j in range(k + 1)] for i in range(k + 1)]
    path = tmp_path / ("atoms%d.tbl" % k)
    path.write_text(MulTable(table, 0).to_text())
    return str(path)


def test_ideal_list_within_budget_answers(capsys, tmp_path):
    # 2^14 ideals of 15 elements: 245,760 cells, within 2000^2
    rc, out, err = run(capsys, ["finite", "ideals", zero_with_atoms(tmp_path, 14)])
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "tightly closed ideals: 16384" and len(lines) == 16385
    assert lines[1:3] == ["ideal {s0}", "ideal {s0,s1}"]


def test_ideal_list_over_budget_is_refused(capsys, tmp_path):
    # 2^18 ideals of 19 elements: about 5.0 M cells, above 2000^2
    rc, out, err = run(capsys, ["finite", "ideals", zero_with_atoms(tmp_path, 18)])
    assert (rc, out) == (1, "")
    assert err == (
        "error: tightly closed ideals: 2^18 ideals of 19 elements exceed 2000^2 cells "
        "(set STONEDUAL_MAX_ELEMENTS to raise)\n"
    )


def test_bisection_limit_is_checked_on_the_count(capsys, tmp_path):
    # 11 atoms make 2^11 local bisections, counted before any is listed
    rc, out, err = run(capsys, ["finite", "complete", zero_with_atoms(tmp_path, 11)])
    assert (rc, out) == (1, "")
    assert err == (
        "error: bisection semigroup has 2048 elements, above the limit 2000 "
        "(set STONEDUAL_MAX_ELEMENTS to raise)\n"
    )


def test_bisection_limit_is_checked_before_the_groupoid(capsys, monkeypatch, tmp_path):
    # 70 atoms make 2^70 local bisections, a count of 22 digits: refused from
    # the table's own component labels, and shown by its order of magnitude
    def refuse(*args):
        raise AssertionError("built the groupoid of a completion over the limit")

    monkeypatch.setattr(duality, "_groupoid_of_minimals", refuse)
    rc, out, err = run(capsys, ["finite", "complete", zero_with_atoms(tmp_path, 70)])
    assert (rc, out) == (1, "")
    assert err == (
        "error: bisection semigroup has more than 10^21 elements, above the limit 2000 "
        "(set STONEDUAL_MAX_ELEMENTS to raise)\n"
    )


def test_complete_without_meets_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "no_meet.tbl"
    path.write_text(TS.no_meet().to_text())
    rc, out, err = run(capsys, ["finite", "complete", str(path)])
    assert (rc, out) == (1, "")
    assert err == "error: distributive completion needs every meet to exist\n"


def test_thompson_commands(capsys):
    g3 = "{a,ba,bb}->{aa,ab,b}:perm=[0,1,2]"
    rc, out, _ = run(capsys, ["thompson", "mul", g3, g3])
    assert rc == 0 and out == "{a,ba,bba,bbb}->{aaa,aab,ab,b}:perm=[0,1,2,3]\n"
    rc, out, _ = run(capsys, ["thompson", "inv", g3])
    assert rc == 0 and out == "{aa,ab,b}->{a,ba,bb}:perm=[0,1,2]\n"
    rc, out, _ = run(capsys, ["thompson", "reduce", "{aa,ab,b}->{aa,ab,b}:perm=[0,1,2]"])
    assert rc == 0 and out == "{1}->{1}:perm=[0]\n"
    rc, out, _ = run(
        capsys,
        ["thompson", "eq", "{a,b}->{a,b}:perm=[1,0]", "{aa,ab,b}->{ba,bb,a}:perm=[0,1,2]"],
    )
    assert rc == 0 and out == "true\n"
    rc, out, _ = run(capsys, ["thompson", "tounit", g3])
    assert rc == 0 and out == "{(1|aa,a|1), (1|ab,ba|1), (1|b,bb|1)}\n"
    rc, out, _ = run(
        capsys, ["thompson", "fromunit", "{(1|aa,a|1), (1|ab,ba|1), (1|b,bb|1)}"]
    )
    assert rc == 0 and out == g3 + "\n"
    rc, out, _ = run(
        capsys,
        [
            "thompson", "mul", "-n", "2", "-r", "2",
            "{r1:1,r2:1}->{r1:1,r2:1}:perm=[1,0]",
            "{r1:1,r2:1}->{r1:1,r2:1}:perm=[1,0]",
        ],
    )
    assert rc == 0 and out == "{r1:1,r2:1}->{r1:1,r2:1}:perm=[0,1]\n"


def test_domain_errors_exit_1(capsys, tmp_path):
    rc, out, err = run(capsys, ["poly", "mul", "-n", "2", "a^-1", "c"])
    assert rc == 1 and out == "" and err.startswith("error:")
    rc, _, err = run(capsys, ["finite", "validate", str(tmp_path / "missing.tbl")])
    assert rc == 1 and err.startswith("error:")
    rc, _, err = run(capsys, ["thompson", "fromunit", "{(1|a,a|1)}"])
    assert rc == 1 and "not a unit" in err
    one = "{1}->{1}:perm=[0]"
    rc, out, err = run(capsys, ["thompson", "mul", "-n", "1", one, one])
    assert (rc, out) == (1, "") and err == "error: alphabet size must be >= 2\n"
    bad = tmp_path / "bad.tbl"
    bad.write_text("elements 2 zero 0\n0 0\n0 0\n")
    rc, _, err = run(capsys, ["finite", "validate", str(bad)])
    assert rc == 1 and err.startswith("error:")
    twice = tmp_path / "twice.graph"
    twice.write_text("vertex v\nvertex v\nedge a v v\n")
    rc, out, err = run(capsys, ["graph", "analyze", str(twice)])
    assert (rc, out, err) == (1, "", "error: duplicate vertex\n")
    # a root count below 1 is named as such, by every command that takes -r
    for argv in (["mpc", "check", "-n", "2", "-r", "0", "a"],
                 ["thompson", "mul", "-n", "2", "-r", "0", one, one],
                 ["thompson", "fromunit", "-n", "2", "-r", "0", "{}"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out, err) == (1, "", "error: root count must be >= 1\n")
    # so is an alphabet size below 1, whatever the literals
    for argv in (["poly", "mul", "-n", "0", "0", "0"],
                 ["poly", "leq", "-n", "-3", "0", "0"],
                 ["poly", "arrow", "-n", "0", "0", "0"],
                 ["poly", "meet", "-n", "0", "a", "0"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out, err) == (1, "", "error: alphabet size must be >= 1\n")


@pytest.mark.parametrize(
    "unit, message",
    [
        ("{(1|a,b|1), (1|a,a|1)}",
         "parts are not pairwise compatible: (1|a,b|1), (1|a,a|1)"),
        ("{(1|a,a|1), (1|b,a|1)}",
         "parts are not pairwise compatible: (1|a,a|1), (1|b,a|1)"),
        ("{}", "not a unit"),
    ],
)
def test_fromunit_errors_name_the_input_pair(capsys, unit, message):
    # the witness is the first incompatible pair in the order of the input
    rc, out, err = run(capsys, ["thompson", "fromunit", unit])
    assert (rc, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize(
    "argv, literal",
    [
        (["poly", "mul", "-n", "2", "", "a"], "''"),
        (["poly", "leq", "-n", "2", "a", "  "], "''"),
        (["mpc", "check", "-n", "2", "a,,b"], "''"),
        (["mpc", "kraft", "-n", "2", "-r", "2", "r1:a,r1:b,r2:"], "'r2:'"),
        (["thompson", "reduce", "-n", "2", "{a,}->{a,b}:perm=[0,1]"], "''"),
        (["thompson", "inv", "-n", "2", "-r", "2",
          "{r1:,r2:}->{r1:,r2:}:perm=[0,1]"], "'r1:'"),
    ],
    ids=["poly", "poly-blank", "mpc", "mpc-root", "tree-pair", "tree-pair-root"],
)
def test_empty_word_has_one_spelling(capsys, argv, literal):
    # 1 is the only spelling of the empty word: a blank one is named
    rc, out, err = run(capsys, argv)
    message = "error: empty word literal %s: write the empty word as 1\n" % literal
    assert (rc, out, err) == (1, "", message)


@pytest.mark.parametrize("pairing, entry", [("x", "x"), ("0,1,", "")])
def test_bad_pairing_entry_names_the_literal(capsys, pairing, entry):
    pair = "{a,b}->{a,b}:perm=[%s]" % pairing
    rc, out, err = run(capsys, ["thompson", "tounit", "-n", "2", pair])
    message = "error: bad pairing entry %r in tree pair %r\n" % (entry, pair)
    assert (rc, out, err) == (1, "", message)


def test_kraft_names_the_empty_root(capsys):
    rc, out, err = run(capsys, ["mpc", "kraft", "-n", "2", "-r", "2", "r1:a,r1:b"])
    assert (rc, out, err) == (1, "", "error: empty code at root 2\n")
    rc, out, err = run(capsys, ["mpc", "kraft", "-n", "2", "-r", "2", "r2:a,r2:b"])
    assert (rc, out, err) == (1, "", "error: empty code at root 1\n")


DEEP_A = "a" * 3000
DEEP_PATH = ".".join("a" * 3000)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["mpc", "check", "-n", "2", DEEP_A + ",b"], "maximal prefix code: false\n"),
        (
            ["poly", "arrow", "-n", "2", "1", "%s.%s^-1,b.b^-1" % (DEEP_A, DEEP_A)],
            "false\n",
        ),
        (
            ["graph", "arrow", "ROSE", "@*/@*", "%s/%s,b/b" % (DEEP_PATH, DEEP_PATH)],
            "false\n",
        ),
    ],
    ids=["mpc-check", "poly-arrow", "graph-arrow"],
)
def test_deep_inputs_answer(capsys, rose_file, argv, expected):
    # the extension-tree walk is 3000 levels deep, past the recursion limit
    argv = [rose_file if t == "ROSE" else t for t in argv]
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (0, expected, "")


TABLE2 = "elements 2 zero 0\n0 0\n0 1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (TABLE2 + "name 5 foo\n", "line 4: name needs a new index in 0..1"),
        (TABLE2 + "name\n", "line 4: name needs a new index in 0..1"),
        (TABLE2 + "name 1 x\nname 1 y\n", "line 5: name needs a new index in 0..1"),
        (TABLE2 + "name b x\n", "line 4: 'b' is not an integer"),
        ("elements 2 zero 0 identity\n0 0\n0 1\n", "line 1: bad header"),
        ("elements 2 zero 0 idnt 1\n0 0\n0 1\n", "line 1: bad header"),
        ("elements 2 zero 0\n0 0\n0 x\n", "line 3: entries must be integers"),
        ("# c\nelements two zero 0\n0 0\n0 1\n", "line 2: 'two' is not an integer"),
        *[
            ("elements 2 zero 0\n0 0\n0 %s\n" % big, "line 3: entries must fit in int32")
            for big in ("99999999999999999999", "3000000000", "-3000000000")
        ],
    ],
)
def test_table_parse_errors_name_the_line(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.tbl"
    bad.write_text(text)
    rc, out, err = run(capsys, ["finite", "validate", str(bad)])
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: " + message)


EDGE_SPELLING = "cannot hold '.' or '/' or start with '@'"


@pytest.mark.parametrize(
    "text, message",
    [
        ("vertex v\nedge a.b v v\n", "edge name 'a.b' " + EDGE_SPELLING),
        ("vertex v\nedge a/b v v\n", "edge name 'a/b' " + EDGE_SPELLING),
        ("vertex v\nedge @a v v\n", "edge name '@a' " + EDGE_SPELLING),
        ("vertex v/w\nedge a v/w v/w\n", "vertex name 'v/w' cannot hold '/'"),
        ("vertex v\nedge a,b v v\n", "edge name 'a,b' cannot hold ','"),
        ("vertex v,w\nedge a v,w v,w\n", "vertex name 'v,w' cannot hold ','"),
    ],
    ids=["edge-dot", "edge-slash", "edge-at", "vertex-slash", "edge-comma", "vertex-comma"],
)
def test_graph_names_literals_cannot_spell_are_refused(capsys, tmp_path, text, message):
    # u/v splits at the first '/', a path at '.', a B list at ',', and '@'
    # starts an empty path, so such a name could never be written in an element
    path = tmp_path / "g.graph"
    path.write_text(text)
    rc, out, err = run(capsys, ["graph", "analyze", str(path)])
    assert (rc, out, err) == (1, "", "error: %s\n" % message)


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["poly", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()


FAMILIES = ["poly", "mpc", "graph", "finite", "thompson", "selftest"]
PARSER_CASES = (
    [[], ["--help"], ["bogus"], ["-x"], ["--json", "finite", "validate"]]
    + [[family, "--help"] for family in FAMILIES]
    + [[family, "bogus"] for family in FAMILIES]
    + [[family] for family in FAMILIES]
    + [["poly", "mul", "a"], ["mpc", "check"], ["graph", "analyze"],
       ["finite", "validate"], ["finite", "complete", "--dump"],
       ["thompson", "mul", "x"], ["selftest", "words", "--seed", "x"]]
)


def _parse_outcome(capsys, parser, argv):
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as stop:
        outcome = stop.code
    return (outcome,) + capsys.readouterr()


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "none")
def test_parser_builds_only_the_named_family(capsys, argv):
    # the other families are stubs: help, usage and errors read as the whole parser's
    whole = _parse_outcome(capsys, cli.build_parser(), argv)
    assert _parse_outcome(capsys, cli.build_parser(argv), argv) == whole
    assert whole[0] == 0 or (whole[0] == 2 and whole[2].startswith("usage: stonedual"))


def test_parser_leaves_unnamed_families_as_stubs(capsys):
    argv = ["poly", "mul", "a", "b"]
    assert cli.build_parser(argv).parse_args(argv).sub == "mul"
    with pytest.raises(SystemExit):
        cli.build_parser(["finite"]).parse_args(argv)
    assert "unrecognized arguments: mul a b" in capsys.readouterr().err


def test_size_cap_from_environment(capsys, monkeypatch, i3_file):
    monkeypatch.setenv("STONEDUAL_MAX_ELEMENTS", "10")
    rc, _, err = run(capsys, ["finite", "validate", i3_file])
    assert rc == 1
    assert "above the limit 10" in err
    monkeypatch.setenv("STONEDUAL_MAX_ELEMENTS", "100")
    rc, out, _ = run(capsys, ["finite", "validate", i3_file])
    assert rc == 0 and out == "valid table: 34 elements\n"


@pytest.mark.parametrize("value", ["x", "-1"])
def test_bad_limit_setting_names_the_setting(capsys, monkeypatch, i2_file, value):
    monkeypatch.setenv("STONEDUAL_MAX_ELEMENTS", value)
    rc, out, err = run(capsys, ["finite", "validate", i2_file])
    assert (rc, out) == (1, "")
    assert err == (
        "error: STONEDUAL_MAX_ELEMENTS takes a non-negative integer, not %r\n" % value
    )


def test_complete_builds_only_the_completion_of_s(
    capsys, monkeypatch, i3_file, theorem_checks_off
):
    # the booleanization report reads its flags off the finite theorems, so
    # the completion of E(S) is never built on this path
    sizes = []
    build = filtercomp.distributive_completion

    def counted(S):
        sizes.append(S.m)
        return build(S)

    monkeypatch.setattr(filtercomp, "distributive_completion", counted)
    rc, out, _ = run(capsys, ["finite", "complete", i3_file])
    assert rc == 0 and out.startswith("completion size: 34\n")
    assert sizes == [34]


def test_complete_builds_no_quotient_table(capsys, monkeypatch, i3_file, theorem_checks_off):
    # the completion reads the 0-minimal groupoid of S, which is that of its
    # Lenz quotient Q, so the only tables built are S and its completion
    built = []
    init = MulTable.__init__

    def counted(self, table, *args, **kwargs):
        built.append(len(table))
        init(self, table, *args, **kwargs)

    monkeypatch.setattr(MulTable, "__init__", counted)
    rc, out, _ = run(capsys, ["finite", "complete", i3_file])
    assert rc == 0 and out.startswith("completion size: 34\n")
    assert built == [34]  # the classes are printed from the local bisections
    built.clear()
    rc, out, _ = run(capsys, ["finite", "complete", "--dump", i3_file])
    assert rc == 0 and out.startswith("completion size: 34\n")
    assert built == [34, 34]  # the dump prints the completion's table


def test_complete_and_dualize_state_their_theorems(
    capsys, monkeypatch, i3_file, theorem_checks_off
):
    # boolean: true and roundtrip: true are theorems; tests/conftest.py
    # re-proves them, the command line does not
    round_trips, tested, built = [], [], []
    roundtrip, boolean = duality.duality_roundtrip, finitesgp._boolean
    build = filtercomp.distributive_completion

    def counted_roundtrip(S):
        round_trips.append(S.m)
        return roundtrip(S)

    def recorded_boolean(S):
        tested.append(S)
        return boolean(S)

    def recorded_build(S):
        built.append(build(S))
        return built[-1]

    monkeypatch.setattr(duality, "duality_roundtrip", counted_roundtrip)
    monkeypatch.setattr(finitesgp, "_boolean", recorded_boolean)
    monkeypatch.setattr(filtercomp, "distributive_completion", recorded_build)
    rc, out, _ = run(capsys, ["finite", "dualize", i3_file])
    assert rc == 0 and out.endswith("roundtrip: true\n")
    assert round_trips == []
    rc, out, _ = run(capsys, ["finite", "complete", i3_file])
    assert rc == 0 and out.splitlines()[1] == "boolean: true"
    assert built and all(T is not comp.D for comp in built for T in tested)


def test_json_records_round_trip(capsys, i3_file, i2_file, rose_file):
    rc, out, _ = run(capsys, ["poly", "mul", "-n", "2", "--json", "ab.b^-1", "b.a^-1"])
    assert rc == 0
    rec = json.loads(out)
    assert rec["op"] == "poly.mul"
    lhs = pc.poly_mul(pc.parse_poly("ab.b^-1", 2), pc.parse_poly("b.a^-1", 2))
    assert pc.parse_poly(rec["result"], 2) == lhs

    g3 = "{a,ba,bb}->{aa,ab,b}:perm=[0,1,2]"
    rc, out, _ = run(capsys, ["thompson", "mul", "--json", g3, g3])
    rec = json.loads(out)
    g = th.parse_tree_pair(g3, 2, 1)
    assert th.parse_tree_pair(rec["result"], 2, 1) == th.tp_mul(g, g)

    rc, out, _ = run(capsys, ["thompson", "tounit", "--json", g3])
    rec = json.loads(out)
    assert th.parse_cuntz(rec["result"], 2, 1).parts == th.tp_to_unit(g).parts

    rc, out, _ = run(capsys, ["finite", "classify", i3_file, "--json"])
    assert json.loads(out) == {"op": "finite.classify", "result": "I(3)"}

    rc, out, _ = run(capsys, ["finite", "ideals", i2_file, "--json"])
    lines = out.splitlines()
    head = json.loads(lines[0])
    assert head == {"op": "finite.ideals", "count": 2}
    assert len(lines) == 1 + head["count"]
    assert json.loads(lines[1]) == {"ideal": ["[]"]}

    rc, out, _ = run(capsys, ["mpc", "kraft", "-n", "2", "--json", "a,ba"])
    assert json.loads(out) == {"op": "mpc.kraft", "root": 1, "sum": "3/4"}

    # one record each, written out: the op is the family and subcommand
    unit = "{(1|aa,a|1), (1|ab,ba|1), (1|b,bb|1)}"
    predicates = {"boolean": True, "distributive": True, "e_star_unitary": True,
                  "fundamental": True, "meet_semigroup": True, "unambiguous": True,
                  "zero_disjunctive": True, "zero_simple": False}
    for argv, record in (
        (["poly", "meet", "-n", "2", "ab.ab^-1", "a.a^-1"],
         {"op": "poly.meet", "result": "ab.ab^-1"}),
        (["poly", "leq", "-n", "2", "ab.ab^-1", "a.a^-1"], {"op": "poly.leq", "result": True}),
        (["poly", "arrow", "-n", "2", "1", "a.a^-1,ba.ba^-1,bb.bb^-1"],
         {"op": "poly.arrow", "result": True}),
        (["graph", "analyze", rose_file],
         {"op": "graph.analyze", "in_degree_zero_vertices": [], "no_zero_minimal": True,
          "pre_boolean": True, "pseudofinite": True, "zero_disjunctive": True}),
        (["graph", "arrow", rose_file, "@*/@*", "a/a"], {"op": "graph.arrow", "result": False}),
        (["graph", "mul", rose_file, "a/b", "b/a"], {"op": "graph.mul", "result": "a/a"}),
        (["mpc", "check", "-n", "2", "a,ba,bb"], {"op": "mpc.check", "result": True}),
        (["thompson", "eq", "{a,b}->{a,b}:perm=[1,0]", "{a,b}->{a,b}:perm=[0,1]"],
         {"op": "thompson.eq", "result": False}),
        (["thompson", "inv", g3],
         {"op": "thompson.inv", "result": "{aa,ab,b}->{a,ba,bb}:perm=[0,1,2]"}),
        (["thompson", "reduce", "{aa,ab,b}->{aa,ab,b}:perm=[0,1,2]"],
         {"op": "thompson.reduce", "result": "{1}->{1}:perm=[0]"}),
        (["thompson", "fromunit", unit], {"op": "thompson.fromunit", "result": g3}),
        (["finite", "predicates", i2_file], dict(predicates, op="finite.predicates")),
        (["finite", "congfree", i2_file], {"op": "finite.congfree", "result": False}),
        (["finite", "simplifying", i2_file], {"op": "finite.simplifying", "result": True}),
    ):
        rc, out, _ = run(capsys, argv + ["--json"])
        assert rc == 0 and out.count("\n") == 1, argv
        assert json.loads(out) == record, argv


def test_output_is_deterministic(capsys, i2_file):
    first = run(capsys, ["finite", "predicates", i2_file])
    second = run(capsys, ["finite", "predicates", i2_file])
    assert first == second
    first = run(capsys, ["selftest", "thompson", "--seed", "3"])
    second = run(capsys, ["selftest", "thompson", "--seed", "3"])
    assert first == second


def test_selftest_suites(capsys):
    rc, out, _ = run(capsys, ["selftest", "all"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == len(selftest.SELFTESTS)
    assert all(": ok (" in line for line in lines)
    rc, out, _ = run(capsys, ["selftest", "words", "--seed", "7", "--json"])
    rec = json.loads(out)
    assert rec["ok"] is True and rec["checks"] > 0 and rec["seed"] == 7


# (suite, checks) of `selftest all`, the same at every seed: each words and
# poly draw adds the same checks, and the other suites draw fixed counts
SELFTEST_CHECKS = [("words", 200), ("poly", 300), ("graph", 160), ("finite", 14),
                   ("thompson", 90)]


@pytest.mark.parametrize("seed", range(5))
def test_selftest_checks_are_pinned(capsys, seed, theorem_checks_off):
    argv = ["selftest", "all", "--seed", str(seed)]
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    assert out.splitlines() == ["selftest %s: ok (%d checks)" % sc for sc in SELFTEST_CHECKS]
    rc, out, err = run(capsys, argv + ["--json"])
    assert (rc, err) == (0, "")
    assert [json.loads(line) for line in out.splitlines()] == [
        {"op": "selftest", "suite": suite, "seed": seed, "checks": checks, "ok": True}
        for suite, checks in SELFTEST_CHECKS
    ]


def test_selftest_failure_survives_optimize():
    # python -O strips bare asserts; a failed selftest check must still fail
    code = (
        "import sys; from stonedual import cli, words; "
        "words.kraft_sum = lambda code, n=None: 0; "
        "sys.exit(cli.main(['selftest', 'words']))"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: selftest words: ")


ROOT = pathlib.Path(__file__).resolve().parent.parent
ELEMENT_LAYERS = ["stonedual.graphisg", "stonedual.polycyclic", "stonedual.thompson"]
SWAP = "{a,b}->{a,b}:perm=[1,0]"
NOT_IN_TABLE_RUNS = ELEMENT_LAYERS + ["fractions", "numpy.ma", "stonedual.words"]
I3_TBL = str(ROOT / "tables" / "i3.tbl")
# stdout block buffered, as from a plain shell, so that the entry point's own
# flush is what writes the answer
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def readme_examples():
    """(command, shown output) for each `$ stonedual ...` line in a README
    code block; a trailing backslash continues the command."""
    lines = (ROOT / "README.md").read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("$ stonedual "):
            continue
        command = line[len("$ stonedual "):]
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + lines[i]
        shown = []
        for line in lines[i + 1:]:
            if line.startswith(("$ ", "```")):
                break
            shown.append(line + "\n")
        examples.append((command, "".join(shown)))
    return examples


def test_readme_examples_print_what_readme_shows(capsys, monkeypatch):
    # the examples name tables/ and graphs/ relative to the repository
    monkeypatch.chdir(ROOT)
    examples = readme_examples()
    assert len(examples) == 13 and all(shown for _, shown in examples)
    for command, shown in examples:
        rc, out, err = run(capsys, shlex.split(command))
        assert (command, rc, out, err) == (command, 0, shown, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "mul", "-n", "2", "a^-1", "a"],
        ["finite", "complete", "--dump", I3_TBL],
        ["finite", "complete", "--dump", "--json", I3_TBL],
        ["finite", "dualize", str(ROOT / "tables" / "chain2.tbl")],
        ["finite", "transpose", I3_TBL],
    ],
    ids=["poly", "complete", "complete-json", "dualize-error", "usage"],
)
def test_module_entry_point(argv):
    # python -m stonedual.cli leaves through cli.run, which flushes and skips
    # teardown; what it prints and returns is what cli.main gives in process
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as stop:
            rc = stop.code
    proc = subprocess.run(
        [sys.executable, "-m", "stonedual.cli"] + argv, capture_output=True, text=True, env=BUFFERED
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out.getvalue(), err.getvalue())
    assert rc == {"dualize": 1, "transpose": 2}.get(argv[1], 0)


@pytest.mark.parametrize("read_first", [True, False], ids=["print", "flush"])
def test_closed_stdout_is_one_error_line(tmp_path, read_first):
    # the reader goes after the first line of a 170 kB dump, so a print
    # fails; or before a one-line answer, so the final flush fails
    table = tmp_path / "i4.tbl"
    table.write_text(symmetric_inverse_monoid(4).to_text())
    argv = ["finite", "complete", "--dump"] if read_first else ["finite", "validate"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "stonedual.cli"] + argv + [str(table)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=BUFFERED,
    )
    if read_first:
        assert proc.stdout.readline() == "completion size: 209\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, "error: [Errno 32] Broken pipe\n")


def test_run_without_stdout_answers_quietly():
    # with file descriptor 1 closed at start-up sys.stdout is None, and print
    # writes nothing; the entry point's flush must not turn that into a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "stonedual.cli", "poly", "mul", "a", "b"],
        stderr=subprocess.PIPE,
        text=True,
        env=BUFFERED,
        preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def cli_process(argv, stdin=None):
    """(exit code, stdout, stderr) of python -m stonedual.cli argv, fed stdin
    through a pipe."""
    proc = subprocess.run([sys.executable, "-m", "stonedual.cli"] + argv, input=stdin,
                          capture_output=True, env=dict(BUFFERED, PYTHONUTF8="1"))
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv, text",
    [
        (["finite", "validate"], b"elements 1 zero 0\n0\n"),
        (["finite", "predicates"], (ROOT / "tables" / "i3.tbl").read_bytes()),
        (["graph", "analyze"], (ROOT / "graphs" / "rose2.graph").read_bytes()),
    ],
    ids=["one-element", "i3", "rose2"],
)
def test_piped_input_answers_as_its_file(tmp_path, argv, text):
    # a pipe has no size to read ahead of time; /dev/stdin on one reads as
    # the file with the same bytes does
    path = tmp_path / "input"
    path.write_bytes(text)
    want = cli_process(argv + [str(path)])
    assert want[0] == 0 and cli_process(argv + ["/dev/stdin"], text) == want


def test_bad_byte_past_the_first_buffer_names_its_file_offset(tmp_path):
    # the file is decoded a piece at a time as it is read; a byte that does
    # not decode is still reported at its offset in the whole file, from a
    # path and from a pipe alike
    text = bytearray(symmetric_inverse_monoid(4).to_text().encode())
    text[20018] = 0xFF
    path = tmp_path / "bad.tbl"
    path.write_bytes(text)
    message = b"error: 'utf-8' codec can't decode byte 0xff in position %d: invalid start byte\n"
    assert cli_process(["finite", "validate", str(path)]) == (1, b"", message % 20018)
    assert cli_process(["finite", "validate", "/dev/stdin"], bytes(text)) == (
        1, b"", message % 20018)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["poly", "mul", "ab.b^-1", "b"], ["numpy", "stonedual.selftest"]),
        (["mpc", "check", "a,b"], ["numpy"]),
        (["graph", "mul", str(ROOT / "graphs" / "rose2.graph"), "a.b/a", "a/b"], ["numpy"]),
        (["thompson", "mul", SWAP, SWAP], ["numpy", "stonedual.selftest"]),
        (["finite", "validate", str(ROOT / "tables" / "i2.tbl")], NOT_IN_TABLE_RUNS),
        (["finite", "predicates", str(ROOT / "tables" / "i2.tbl")], NOT_IN_TABLE_RUNS),
        (["finite", "ideals", str(ROOT / "tables" / "i2.tbl")], NOT_IN_TABLE_RUNS),
        (["selftest", "words"], ["numpy", "stonedual.thompson"]),
        (["selftest", "finite"], NOT_IN_TABLE_RUNS),
    ],
    ids=["poly", "mpc", "graph", "thompson", "finite", "finite-predicates", "finite-ideals",
         "selftest-words", "selftest-finite"],
)
def test_run_loads_only_its_layers(argv, absent):
    # each CLI run pays start-up for its own layers only: the element
    # subcommands run without numpy, a table run without the element layers,
    # words (InternalError lives in the package) or np.unique's numpy.ma; the
    # words selftest runs without numpy or the Cuntz layer, the finite one
    # as a table run, and only a selftest run loads the suites
    code = (
        "import sys; from stonedual import cli; rc = cli.main(sys.argv[1:]); "
        "print(sorted(set(%r) & set(sys.modules))); sys.exit(rc)" % absent
    )
    proc = subprocess.run(
        [sys.executable, "-c", code] + argv, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "[]"


def test_internal_error_exits_3(capsys, monkeypatch, i2_file):
    def broken(S):
        raise finitesgp.InternalError("invariant broken")

    monkeypatch.setattr(finitesgp, "is_congruence_free", broken)
    rc, out, err = run(capsys, ["finite", "congfree", i2_file])
    assert rc == 3 and out == ""
    assert err.splitlines() == ["internal error: invariant broken"]


# ---------------------------------------------------------------------------
# fuzzing: every input gets an answer or error: lines, never a traceback

FUZZ = settings(max_examples=120, derandomize=True, deadline=None)
TABLES = pathlib.Path(__file__).resolve().parent.parent / "tables"
SEED_TABLES = [
    (TABLES / "chain2.tbl").read_text(),
    (TABLES / "i2.tbl").read_text(),
    "elements 1 zero 0\n0\n",
]
FINITE_SUBS = [
    "validate", "predicates", "congfree", "simplifying",
    "complete", "dualize", "classify", "ideals",
]


def quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def assert_clean_exit(argv):
    rc, out, err = quiet_main(argv)
    assert rc in (0, 1, 2), (argv, rc, err)
    if rc != 0:
        lines = err.splitlines()
        assert out == "" and lines, (argv, out, err)
        assert all(line.startswith("error: ") for line in lines), (argv, err)


GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


@pytest.mark.parametrize("sub", FINITE_SUBS)
@pytest.mark.parametrize("label", ["chain2", "i2", "i3"])
def test_tables_corpus_replays_golden_output(label, sub):
    # the tables benchmark's corpus ops: stdout as recorded in golden.json
    rc, out, err = quiet_main(["finite", sub, str(TABLES / (label + ".tbl"))])
    if (sub, label) == ("dualize", "chain2"):
        # the one documented refusal: dualize needs a Boolean table
        assert (rc, out) == (1, "") and err.startswith("error: ")
        assert len(err.splitlines()) == 1
        return
    want = json.loads(GOLDEN.read_text())["ops"]["%s %s" % (sub, label)]
    assert (rc, err) == (want["exit"], "")
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]


@pytest.mark.parametrize("sub", FINITE_SUBS)
def test_boolean_table_needs_no_join_table(monkeypatch, sub, theorem_checks_off):
    # on a Boolean table no subcommand builds the join table or the
    # compatible pairs: Boolean is counted, and distributive follows from it
    def refuse(*args):
        raise AssertionError("built an m x m join or compatibility table")

    monkeypatch.setattr(finitesgp, "_bound_table", refuse)
    monkeypatch.setattr(MulTable, "compat_matrix", refuse)
    rc, out, err = quiet_main(["finite", sub, str(TABLES / "i3.tbl")])
    want = json.loads(GOLDEN.read_text())["ops"]["%s i3" % sub]
    assert (rc, err) == (want["exit"], "")
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]


def test_table_route_runs_no_groupoid_reproof(monkeypatch, tmp_path, theorem_checks_off):
    # the 0-minimal groupoid is read off the table; the groupoid axioms are
    # re-proved by tests/conftest.py, and the validating constructor is kept
    # for groupoids that come from outside
    def refuse(*args):
        raise AssertionError("re-proved the groupoid axioms on the table route")

    monkeypatch.setattr(duality.FiniteGroupoid, "_validate", refuse)
    i3, golden = str(TABLES / "i3.tbl"), json.loads(GOLDEN.read_text())["ops"]
    for sub in FINITE_SUBS:
        rc, out, err = quiet_main(["finite", sub, i3])
        want = golden["%s i3" % sub]
        assert (rc, err) == (want["exit"], "")
        assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]
        if sub in ("complete", "dualize"):
            rc, dumped, err = quiet_main(["finite", sub, "--dump", i3])
            assert (rc, err) == (0, "") and dumped.startswith(out) and dumped != out
    z7 = tmp_path / "z7.tbl"
    z7.write_text(TS.cyclic_with_zero(7).to_text())
    for argv in [[sub] for sub in FINITE_SUBS] + [["complete", "--dump"], ["dualize", "--dump"]]:
        rc, out, err = quiet_main(["finite", *argv, str(z7)])
        assert (rc, err) == (0, ""), argv


# (exit code, sha256 of stdout) of the --dump runs, as captured before either
# dump was rendered a row at a time, and of `complete` on I(4)
PINNED = {
    "complete --dump chain2": (0, "3f5e53d191a5e46fa76300a30b49aa32641c0be580d976375052110e024a2da7"),
    "complete --dump --json chain2": (0, "3d6eb8cd93684bc637af47db2415cfcec72a5ca2a097ba65595144b8f99d234b"),
    "dualize --dump chain2": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dualize --dump --json chain2": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "complete --dump i2": (0, "10a2b50bd748372e3d3313a194eb9e0b7e01fdeefe31be4ebb1e16ca481f9902"),
    "complete --dump --json i2": (0, "e5966290ee8c5e4616af3ac290e6e6bae6f91c1ea655e4a8a33f918319365f10"),
    "dualize --dump i2": (0, "5c19b89c31ab85b00df4c7610b8f91620342160b861fb14f0d579d83adc1ce75"),
    "dualize --dump --json i2": (0, "73895c7a1953c6b9ecf8658a2de5da486d0b79fb64b055f9162dc47224781f94"),
    "complete --dump i3": (0, "c6cc692ca34bcc634fca92ddb3f95fe6e141e202d887229db6d3af1fecd217aa"),
    "complete --dump --json i3": (0, "1f849d17873bb77a77a7256ec6d35cd070bc2e1fd0cb2f8eeaf9cdeddb5c1baf"),
    "dualize --dump i3": (0, "5af23dfe5a9becf370860c4ec149cc5234e8f459dee137f52c07f9f1531fc999"),
    "dualize --dump --json i3": (0, "8b065ec546fc47da0b8dfb0c0c3ea50d2e63dce7fdd713c3148fc832f27c7823"),
    "complete --dump i4": (0, "85a7ca67a17e6a3909ac9f41e83d1f73ce006716196fd81d454c4fe582574c85"),
    "complete --dump --json i4": (0, "5cd1d47f757f27eba979c736c7e84a81cba757bce3a5f255ed017be589cb039b"),
    "dualize --dump i4": (0, "46675c128dd7655159cbaf21b173419b5bb6f037e2372beb986d41c26ed4ecf5"),
    "dualize --dump --json i4": (0, "d001aab44f780a261c421b1db5812c66e383772bd510ad81c312d1c0a1d332e3"),
    "complete --dump z7": (0, "3054d723ec5a0f21fec3cf2c3973e7f1c1f6d04d1e484b9d47e2f2f6972beb4c"),
    "complete --dump --json z7": (0, "a6ebd784fb1e4d0d38d9c91e0863ed017af51b118773a0ef93cc1aef2f9a6c04"),
    "dualize --dump z7": (0, "0300ceb225819c2d24913d5c5b10b03b486eb0bd5d5ad2b7212489d357adca49"),
    "dualize --dump --json z7": (0, "5d8c24415b6a5946b3bb2faad0d4a0216ab8ca7ae7f101b210e69bc3b275aaeb"),
    "complete i4": (0, "815035616a11c5eb7bd25851d6b65e18e522086bfe799c68b6990b10be74f669"),
}


# (exit code, sha256 of stdout) of each finite subcommand on tables/r2_z2.tbl,
# R_2(Z2): the bisections of the groupoid 2 x Z2
R2_Z2_PINNED = {
    "validate": (0, "6883999ec904724d8fbab0d03db318720007fc085083b8d88c5739fb161e96c9"),
    "predicates": (0, "ccc27e8ae51e5c352dc069aacf8c203f4c63efef552636866ea0ba049fc53487"),
    "congfree": (0, "9562ae6109c6a598696b3793717848c046e098d1f04228aa8d1697a7f0cb0d85"),
    "simplifying": (0, "228152d74c0259e8af6669e8967b4ea349a65e77e9c636ec7998adaa33c23bb5"),
    "complete": (0, "a62f97a5e1d06c0584bf10bb4375b9d2aa4ba2a95ad147aa71ae3cc574a8d16d"),
    "dualize": (0, "e16c202f5f63c9bf9426e88c5eeb07261c8473edb882225ae87b0c851e899110"),
    "classify": (0, "3c2116fc92da82bf9e1ec4b9abb2deab39060b89afa3dc2011f3eb10131e8bdf"),
    "ideals": (0, "c4debc631c202c54174ac781469832387b0024be9d169c3b020245b5b4dc9512"),
}


def test_r2_z2_table_is_the_library_s_and_its_output_is_pinned():
    path = TABLES / "r2_z2.tbl"
    G = duality.shape_groupoid([(2, TS.GROUPS["Z2"])])
    assert path.read_text() == duality.bisection_semigroup(G).to_text()
    outs = {}
    for sub in FINITE_SUBS:
        rc, outs[sub], err = quiet_main(["finite", sub, str(path)])
        digest = hashlib.sha256(outs[sub].encode()).hexdigest()
        assert (rc, digest, err) == (*R2_Z2_PINNED[sub], ""), sub
    # a Boolean inverse monoid with nontrivial local groups: not some I(k)
    assert outs["classify"] == "not symmetric: not fundamental\n"
    assert outs["dualize"] == "objects: 2\narrows: 8\nroundtrip: true\n"


def pinned_tables(tmp_path):
    """{label: path}: the tables/ corpus, I(4) and Z_7 with a zero."""
    paths = {label: str(TABLES / ("%s.tbl" % label)) for label in ("chain2", "i2", "i3")}
    for label, S in (("i4", symmetric_inverse_monoid(4)), ("z7", TS.cyclic_with_zero(7))):
        paths[label] = str(tmp_path / ("%s.tbl" % label))
        pathlib.Path(paths[label]).write_text(S.to_text())
    return paths


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("sub", ["complete", "dualize"])
def test_dump_output_is_pinned(tmp_path, sub, flags, theorem_checks_off):
    for label, path in pinned_tables(tmp_path).items():
        rc, out, _ = quiet_main(["finite", sub, "--dump", *flags, path])
        key = " ".join([sub, "--dump", *flags, label])
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == PINNED[key], key


def test_complete_prints_without_the_completion_table(monkeypatch, tmp_path, theorem_checks_off):
    def refuse(*args):
        raise AssertionError("built the completion's table without --dump")

    golden = json.loads(GOLDEN.read_text())["ops"]
    want = {label: (golden["complete " + label]["exit"], golden["complete " + label]["sha256"])
            for label in ("chain2", "i2", "i3")}
    want["i4"] = PINNED["complete i4"]
    paths = pinned_tables(tmp_path)  # I(4) is itself a bisection table
    monkeypatch.setattr(duality, "_bisection_table", refuse)
    for label, (code, digest) in want.items():
        rc, out, err = quiet_main(["finite", "complete", paths[label]])
        assert (rc, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, ""), label


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("sub", ["complete", "dualize"])
def test_dump_renders_its_text_once(monkeypatch, sub, flags):
    cls = MulTable if sub == "complete" else duality.FiniteGroupoid
    texts, render = [], cls.to_text

    def counted(self):
        texts.append(render(self))
        return texts[-1]

    monkeypatch.setattr(cls, "to_text", counted)
    i3 = str(TABLES / "i3.tbl")
    rc, plain, err = quiet_main(["finite", sub, *flags, i3])
    assert (rc, err, texts) == (0, "", [])
    rc, out, err = quiet_main(["finite", sub, "--dump", *flags, i3])
    assert (rc, err, len(texts)) == (0, "", 1)
    if flags:
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0].pop("text") == texts[0]
        assert records == [json.loads(line) for line in plain.splitlines()]
    else:
        assert out == plain + texts[0]


@pytest.mark.parametrize("group", ["Z%d" % n for n in range(1, 9)] + ["S3"])
def test_finite_commands_on_groups_with_zero(tmp_path, group):
    # every element of a group with a zero is 0-minimal, so its groupoid is
    # the group: one object, n arrows, the shape on which a re-proof is cubic
    S = TS.s3_with_zero() if group == "S3" else TS.cyclic_with_zero(int(group[1:]))
    n, path = S.m - 1, tmp_path / "group.tbl"
    path.write_text(S.to_text())
    outs = {}
    for sub in FINITE_SUBS:
        rc, outs[sub], err = quiet_main(["finite", sub, str(path)])
        assert (rc, err) == (0, ""), sub
    assert outs["dualize"] == "objects: 1\narrows: %d\nroundtrip: true\n" % n
    lines = outs["complete"].splitlines()
    assert lines[0] == "completion size: %d" % (n + 1)
    assert len([line for line in lines if line.startswith("class ")]) == n + 1
    assert outs["classify"] == ("I(1)\n" if n == 1 else "not symmetric: not fundamental\n")
    rc, out, err = quiet_main(["finite", "dualize", "--dump", str(path)])
    G = duality.ultrafilter_groupoid(S)
    H = duality.FiniteGroupoid.from_text(out.split("roundtrip: true\n", 1)[1])
    assert (H.C == G.C).all() and H.inv == G.inv


_token = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from(["elements", "zero", "identity", "name", "#"]),
    st.text(max_size=3),
)
_noise_line = st.lists(_token, max_size=6).map(" ".join)


@st.composite
def table_texts(draw):
    """A random table, or a shipped one, with lines inserted and dropped."""
    if not draw(st.booleans()):
        lines = draw(st.sampled_from(SEED_TABLES)).splitlines()
    else:
        m = draw(st.integers(0, 3))
        cell = st.integers(-1, m).map(str)
        header = "elements %d zero %s" % (m, draw(cell))
        if draw(st.booleans()):
            header += " identity %s" % draw(cell)
        lines = [header]
        for _ in range(m):
            lines.append(" ".join(draw(st.lists(cell, min_size=m, max_size=m))))
        for _ in range(draw(st.integers(0, m))):
            lines.append("name %s %s" % (draw(cell), draw(st.text(max_size=4))))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_noise_line))
    if lines and draw(st.booleans()):
        lines.pop(draw(st.integers(0, len(lines) - 1)))
    return "\n".join(lines) + "\n"


@FUZZ
@given(
    text=table_texts(),
    sub=st.sampled_from(FINITE_SUBS),
    flags=st.lists(st.sampled_from(["--json", "--dump"]), max_size=2, unique=True),
)
def test_fuzz_table_format(tmp_path_factory, text, sub, flags):
    path = tmp_path_factory.mktemp("fuzz") / "t.tbl"
    path.write_text(text)
    if sub not in ("complete", "dualize"):
        flags = [f for f in flags if f != "--dump"]
    assert_clean_exit(["finite", sub] + flags + ["--", str(path)])


_n = st.one_of(st.sampled_from(["2", "3"]), st.integers(-1, 28).map(str))
_root = st.one_of(st.sampled_from(["1", "2"]), st.integers(-1, 3).map(str))
_word = st.one_of(
    st.text(alphabet="ab", max_size=4),
    st.text(alphabet="abc1", max_size=4),
    st.text(max_size=3),
)
_poly = st.one_of(
    _word,
    st.builds("{}^-1".format, _word),
    st.builds("{}.{}^-1".format, _word, _word),
    st.text(alphabet="ab.^-10,", max_size=8),
)
_ext = st.one_of(
    st.builds("({}|{},{}|{})".format, _root, _word, _word, _root),
    st.text(alphabet="(|,)ab12", max_size=10),
)
_rooted = st.one_of(_word, st.builds("r{}:{}".format, _root, _word))
_codes = st.lists(_rooted, max_size=4).map(",".join)


@st.composite
def _mutated(draw, text):
    """The text, or the text with one character inserted or removed."""
    pos = draw(st.integers(0, len(text)))
    choice = draw(st.integers(0, 3))
    if choice == 1:
        return text[:pos] + draw(st.sampled_from("ab,{}()|:r-[]1 ")) + text[pos:]
    if choice == 2 and text:
        return text[:pos] + text[pos + 1:]
    return text


def _draw_code(draw, n, r, splits):
    """A maximal r-rooted prefix code over n letters: split leaves at random."""
    code = [wd.RootedWord(i, ()) for i in range(1, r + 1)]
    for _ in range(splits):
        w = code.pop(draw(st.integers(0, len(code) - 1)))
        code.extend(wd.RootedWord(w.root, w.letters + (k,)) for k in range(n))
    return code


@st.composite
def _tree_pairs(draw, n, r):
    """A valid tree pair over (n, r) when there is one, possibly mutated, or
    a literal assembled from random pieces."""
    if 2 <= n <= 4 and 1 <= r <= 3 and not draw(st.booleans()):
        splits = draw(st.integers(0, 3))
        codes = [_draw_code(draw, n, r, splits) for _ in range(2)]
        perm = draw(st.permutations(range(len(codes[0]))))
        g = th.tree_pair(n, r, codes[0], codes[1], perm)
        return g, draw(_mutated(th.format_tree_pair(g)))
    perm = st.lists(st.integers(-1, 4).map(str), max_size=4).map(",".join)
    text = draw(st.one_of(
        st.builds("{{{}}}->{{{}}}:perm=[{}]".format, _codes, _codes, perm),
        st.text(max_size=10),
    ))
    return None, text


@FUZZ
@given(
    sub=st.sampled_from(["mul", "meet", "leq", "arrow"]),
    n=_n,
    a=_poly,
    b=st.lists(_poly, min_size=1, max_size=3).map(",".join),
)
def test_fuzz_poly_literals(sub, n, a, b):
    assert_clean_exit(["poly", sub, "-n", n, "--", a, b])


@FUZZ
@given(n=_n, r=_root, data=st.data())
def test_fuzz_extended_literals(n, r, data):
    g, _ = data.draw(_tree_pairs(int(n), int(r)))
    if g is not None and not data.draw(st.booleans()):
        # a unit, or a unit with one part dropped
        parts = sorted(th.tp_to_unit(g).parts)
        if data.draw(st.booleans()):
            parts.pop(data.draw(st.integers(0, len(parts) - 1)))
        text = data.draw(_mutated("{%s}" % ", ".join(map(pc.format_ext, parts))))
    else:
        text = data.draw(st.one_of(
            st.lists(_ext, max_size=4).map(lambda ps: "{" + ", ".join(ps) + "}"),
            st.text(max_size=8),
        ))
    assert_clean_exit(["thompson", "fromunit", "-n", n, "-r", r, "--", text])


@FUZZ
@given(
    sub=st.sampled_from(["mul", "eq", "inv", "reduce", "tounit"]),
    n=_n,
    r=_root,
    data=st.data(),
)
def test_fuzz_tree_pair_literals(sub, n, r, data):
    literals = [data.draw(_tree_pairs(int(n), int(r)))[1]]
    if sub in ("mul", "eq"):
        literals.append(data.draw(_tree_pairs(int(n), int(r)))[1])
    assert_clean_exit(["thompson", sub, "-n", n, "-r", r, "--"] + literals)


@FUZZ
@given(sub=st.sampled_from(["check", "kraft"]), n=_n, r=_root, data=st.data())
def test_fuzz_mpc_codes(sub, n, r, data):
    if 1 <= int(n) <= 4 and 1 <= int(r) <= 3 and not data.draw(st.booleans()):
        # a maximal code, maybe with one word dropped, then perhaps mutated
        code = _draw_code(data.draw, int(n), int(r), data.draw(st.integers(0, 3)))
        if len(code) > 1 and data.draw(st.booleans()):
            code.pop(data.draw(st.integers(0, len(code) - 1)))
        words = [wd.format_rooted(w, int(n), int(r)) for w in code]
        text = data.draw(_mutated(",".join(words)))
    else:
        text = data.draw(st.one_of(_codes, st.text(max_size=8)))
    assert_clean_exit(["mpc", sub, "-n", n, "-r", r, "--", text])


_vertex = st.one_of(st.sampled_from(["u", "v", "*"]), st.text(max_size=2))
_edge = st.one_of(st.sampled_from(["a", "b", "e", "f"]), st.text(max_size=2))
_path = st.one_of(
    st.builds("@{}".format, _vertex),
    st.lists(_edge, min_size=1, max_size=3).map(".".join),
    st.text(alphabet="abef.@*uv", max_size=5),
)
_gisg = st.one_of(
    st.just("0"),
    st.builds("{}/{}".format, _path, _path),
    st.text(alphabet="abef./@*uv0", max_size=6),
)
GRAPHS = [
    ROSE2,
    # a source u, a sink w and a loop at v: the extension tree has dead branches
    "vertex u\nvertex v\nvertex w\nedge e u v\nedge f v v\nedge g v w\n",
]


@st.composite
def graph_texts(draw):
    """A random graph, or a fixed one, with lines inserted and dropped."""
    if not draw(st.booleans()):
        lines = draw(st.sampled_from(GRAPHS)).splitlines()
    else:
        lines = ["vertex %s" % v for v in draw(st.lists(_vertex, max_size=3))]
        for _ in range(draw(st.integers(0, 4))):
            lines.append("edge %s %s %s" % (draw(_edge), draw(_vertex), draw(_vertex)))
    noise = st.lists(st.one_of(_vertex, st.sampled_from(["vertex", "edge", "#"])),
                     max_size=5).map(" ".join)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    if lines and draw(st.booleans()):
        lines.pop(draw(st.integers(0, len(lines) - 1)))
    return "\n".join(lines) + "\n"


@FUZZ
@given(
    text=graph_texts(),
    sub=st.sampled_from(["analyze", "mul", "arrow"]),
    a=_gisg,
    b=st.lists(_gisg, min_size=1, max_size=3).map(",".join),
)
def test_fuzz_graph_format(tmp_path_factory, text, sub, a, b):
    path = tmp_path_factory.mktemp("fuzz") / "g.graph"
    path.write_text(text)
    args = [] if sub == "analyze" else [a, b]
    assert_clean_exit(["graph", sub, "--", str(path)] + args)


GROUPOIDS = [duality.shape_groupoid(shape).to_text() for shape in ([(2, [[0]])], [(1, [[0]])] * 2)]
_arrow_id = st.one_of(st.integers(-1, 4), st.sampled_from([99999999999, -(10**30)]))


@st.composite
def groupoid_texts(draw):
    """A groupoid dump, or random object/arrow/compose lines, with lines
    inserted and dropped."""
    if not draw(st.booleans()):
        lines = draw(st.sampled_from(GROUPOIDS)).splitlines()
    else:
        lines = []
        for _ in range(draw(st.integers(0, 6))):
            kind, count = draw(st.sampled_from([("object", 1), ("arrow", 3), ("compose", 3)]))
            ids = draw(st.lists(_arrow_id, min_size=count, max_size=count))
            lines.append(" ".join([kind] + [str(x) for x in ids]))
    noise = st.lists(st.one_of(_arrow_id.map(str), st.text(max_size=2),
                               st.sampled_from(["object", "arrow", "compose", "#"])),
                     max_size=5).map(" ".join)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    if lines and draw(st.booleans()):
        lines.pop(draw(st.integers(0, len(lines) - 1)))
    return "\n".join(lines) + "\n"


@FUZZ
@given(text=groupoid_texts())
def test_fuzz_groupoid_format(text):
    # no command reads this format, so the property is on the parser: a
    # groupoid or TableError, never another exception
    try:
        G = duality.FiniteGroupoid.from_text(text)
    except finitesgp.TableError:
        return
    assert duality.FiniteGroupoid.from_text(G.to_text()).to_text() == G.to_text()


@st.composite
def _graph_elements(draw, graph):
    """u/v from two walks down the extension tree, possibly mutated."""
    ends = []
    for _ in range(2):
        cur = draw(st.sampled_from(graph.vertices))
        edges = []
        for _ in range(draw(st.integers(0, 3))):
            if not graph.branches[cur]:
                break
            e, cur = draw(st.sampled_from(graph.branches[cur]))
            edges.append(e)
        ends.append(".".join(edges) if edges else "@" + cur)
    return draw(_mutated("/".join(ends)))


@FUZZ
@given(which=st.integers(0, len(GRAPHS) - 1), sub=st.sampled_from(["mul", "arrow"]),
       data=st.data())
def test_fuzz_graph_literals(tmp_path_factory, which, sub, data):
    path = tmp_path_factory.mktemp("fuzz") / "g.graph"
    path.write_text(GRAPHS[which])
    graph = wd.DirectedGraph.from_text(GRAPHS[which])
    a = data.draw(_graph_elements(graph))
    bs = data.draw(st.lists(_graph_elements(graph), min_size=1, max_size=3))
    assert_clean_exit(["graph", sub, "--", str(path), a, ",".join(bs)])
