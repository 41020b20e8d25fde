import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import stonedual
from stonedual import graphisg as G
from stonedual import polycyclic as P
from stonedual import words as W
from stonedual.selftest import random_word
from tests_support_codes import random_complete_code, random_path


def w(n, text):
    return W.parse_word(text, n)


# ---------------------------------------------------------------------------
# prefix comparison

def test_prefix_compare_basic():
    assert W.prefix_compare(w(2, "ab"), w(2, "abba")).kind == W.X_PREFIX_OF_Y
    assert W.prefix_compare(w(2, "ab"), w(2, "abba")).remainder == w(2, "ba")
    assert W.prefix_compare(w(2, "abba"), w(2, "ab")).kind == W.Y_PREFIX_OF_X
    assert W.prefix_compare(w(2, "ab"), w(2, "ab")).kind == W.EQUAL
    assert W.prefix_compare(w(2, "ab"), w(2, "ba")).kind == W.INCOMPARABLE
    assert W.prefix_compare(w(2, "1"), w(2, "ba")).kind == W.X_PREFIX_OF_Y


def test_prefix_compare_alphabet_mismatch():
    with pytest.raises(ValueError):
        W.prefix_compare(w(2, "a"), w(3, "a"))


words_st = st.integers(min_value=2, max_value=3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=8),
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=8),
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=8),
    )
)


@given(words_st)
def test_prefix_compare_is_partial_order(data):
    n, xs, ys, zs = data
    x, y, z = W.make_word(n, xs), W.make_word(n, ys), W.make_word(n, zs)

    def leq(a, b):
        # b is a prefix of a: a below b in the extension order
        return W.prefix_compare(a, b).kind in (W.EQUAL, W.Y_PREFIX_OF_X)

    assert leq(x, x)
    if leq(x, y) and leq(y, x):
        assert x == y
    if leq(x, y) and leq(y, z):
        assert leq(x, z)
    # remainder really is the difference
    rel = W.prefix_compare(x, y)
    if rel.kind == W.X_PREFIX_OF_Y:
        assert x.letters + rel.remainder.letters == y.letters
    if rel.kind == W.Y_PREFIX_OF_X:
        assert y.letters + rel.remainder.letters == x.letters


# ---------------------------------------------------------------------------
# prefix codes

def test_maximal_prefix_code_examples():
    assert W.is_maximal_prefix_code({w(2, "a"), w(2, "ba"), w(2, "bb")})
    assert not W.is_maximal_prefix_code({w(2, "a"), w(2, "bb")})
    assert W.is_maximal_prefix_code({w(2, "1")})
    assert not W.is_maximal_prefix_code({w(2, "a"), w(2, "ab")})  # not a prefix code
    assert W.is_maximal_prefix_code({w(3, "a"), w(3, "b"), w(3, "c")})
    with pytest.raises(ValueError):
        W.is_maximal_prefix_code(set())


def test_prefix_code_matches_pairwise_definition():
    rng = random.Random(3)
    for trial in range(500):
        n = rng.choice([2, 3])
        # short words over a small alphabet, so prefixes and repeats are common
        ws = [W.Word(n, random_word(rng, n, 3)) for _ in range(rng.randrange(6))]
        pairwise = all(
            W.prefix_compare(a, b).kind == W.INCOMPARABLE
            for i, a in enumerate(ws)
            for b in ws[i + 1:]
        )
        assert W.is_prefix_code(ws) == pairwise, ws
    with pytest.raises(ValueError, match="alphabet mismatch: 2 vs 3"):
        W.is_prefix_code([w(2, "a"), w(3, "b")])


def test_kraft_values():
    assert W.kraft_sum({w(2, "a"), w(2, "ba"), w(2, "bb")}) == 1
    assert W.kraft_sum({w(2, "a"), w(2, "bb")}) == Fraction(3, 4)
    assert W.kraft_sum({w(2, "1")}) == 1
    with pytest.raises(ValueError):
        W.kraft_sum({w(2, "a"), w(2, "ab")})
    # three one-letter words over 3 letters are no code over 2 letters, for
    # the Kraft sum as for maximality
    for check in (W.kraft_sum, W.is_maximal_prefix_code):
        with pytest.raises(ValueError, match="alphabet mismatch inside code"):
            check([w(3, "a"), w(3, "b"), w(3, "c")], 2)


def test_maximality_iff_kraft_one():
    rng = random.Random(1)
    for trial in range(400):
        n = rng.choice([2, 3])
        code = random_complete_code(rng, n, 8)
        # maybe knock out some leaves: stays a prefix code, loses maximality
        removed = 0
        for c in sorted(code):
            if len(code) - removed > 1 and rng.random() < 0.2:
                code.discard(c)
                removed += 1
        ws = {W.Word(n, c) for c in code}
        got = W.is_maximal_prefix_code(ws)
        assert got == (W.kraft_sum(ws) == 1)
        assert got == (removed == 0)


def test_depth_criterion_stable_beyond_max_length():
    # checking at depth L is equivalent to checking at any depth >= L
    rng = random.Random(2)
    for trial in range(100):
        n = rng.choice([2, 3])
        code = random_complete_code(rng, n, 4)
        if rng.random() < 0.5 and len(code) > 1:
            code.discard(sorted(code)[rng.randrange(len(code))])
        depth = max(len(c) for c in code)
        base = W.prefix_covers_depth(code, n, depth)
        for extra in (1, 2, 3):
            deeper = all(
                any(t[: len(c)] == c for c in code)
                for t in W.all_letter_tuples(n, depth + extra)
            )
            assert deeper == base
    # a comb 3000 deep, past the recursion limit: b, ab, aab, ..., a^3000
    comb = {(0,) * i + (1,) for i in range(3000)} | {(0,) * 3000}
    assert W.prefix_covers_depth(comb, 2, 3000)
    assert not W.prefix_covers_depth(comb - {(0,) * 1500 + (1,)}, 2, 3000)
    assert not W.prefix_covers_depth(comb - {(0,) * 3000}, 2, 3000)


def test_wide_alphabets_build_no_branches():
    # with fewer tails than letters some first letter begins no tail, so
    # the answer comes before any branch is built; the empty word covers
    # every depth. The guard gives the branch walk's answer on small sets
    for n in (1, 2, 3):
        words = [w for k in range(3) for w in W.all_letter_tuples(n, k)]
        for size in range(n + 2):
            for tails in itertools.combinations(words, size):
                depth = max(map(len, tails), default=0)
                walk = W.covers_to_depth(set(tails), 0, W.letter_branches(n), depth)
                assert W.prefix_covers_depth(set(tails), n, depth) == walk, tails
    n = 10**6
    one, e = P.poly_one(n), P.poly(n, (0,), (0,))
    tracemalloc.start()
    try:
        answers = [
            W.is_maximal_prefix_code([W.make_word(n, (0,))]),
            W.is_maximal_prefix_code([W.make_word(n, ())]),
            P.lenz_arrow(one, [e]),
            P.ext_lenz_arrow(P.ext(n, 1, 1, one, 1), [P.ext(n, 1, 1, e, 1)]),
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answers == [False, True, False, False]
    assert peak < 100_000, peak


# ---------------------------------------------------------------------------
# word parsing and formatting

def test_word_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.choice([2, 3, 26, 30])
        ls = random_word(rng, n, 5)
        word = W.make_word(n, ls)
        assert W.parse_word(W.format_word(word), n) == word
    assert W.format_word(W.make_word(2, ())) == "1"
    assert W.format_word(W.make_word(30, (0, 29))) == "a0a29"
    assert W.parse_word("a0a29", 30).letters == (0, 29)


def test_rooted_codes():
    c = [W.parse_rooted(t, 2, 2) for t in ["r1:1", "r2:a", "r2:ba", "r2:bb"]]
    assert W.is_rooted_maximal_prefix_code(c, 2, 2)
    assert not W.is_rooted_maximal_prefix_code(c[1:], 2, 2)  # root 1 missing
    assert not W.is_rooted_maximal_prefix_code(c[:3], 2, 2)  # root 2 incomplete
    assert W.format_rooted(c[2], 2, 2) == "r2:ba"
    assert W.format_rooted(W.RootedWord(1, (0,)), 2, 1) == "a"
    with pytest.raises(ValueError):
        W.parse_rooted("r3:a", 2, 2)


# ---------------------------------------------------------------------------
# graphs and paths

def sample_graph():
    # two vertices p, q; two parallel edges x, y from q to p; a loop z at q
    return W.DirectedGraph(
        ["p", "q"],
        [("x", "q", "p"), ("y", "q", "p"), ("z", "q", "q")],
    )


def test_graph_text_roundtrip():
    g = sample_graph()
    text = g.to_text()
    g2 = W.DirectedGraph.from_text(text)
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges
    g3 = W.DirectedGraph.from_text("# comment\nvertex v\n\nedge e v v # loop\n")
    assert g3.edges == {"e": ("v", "v")}
    with pytest.raises(ValueError):
        W.DirectedGraph.from_text("vertex v\nbogus line\n")


def test_sliced_reader_reads_graphs_alike(monkeypatch):
    # the graph reader goes through the shared sliced line reader: every
    # slice size gives the same graph, and the same numbered error, as one
    # slice of the whole text
    text = ("# two vertices\r\nvertex v\r\n\r\n\x0cvertex w # second\r\n"
            "edge e v w\r\n  \r\nedge f w w\r\n")
    bad = text.replace("edge f w w", "edge f w", 1)

    def outcome(t):
        try:
            g = W.DirectedGraph.from_text(t)
        except ValueError as exc:
            return str(exc)
        return g.vertices, g.edges

    whole = [outcome(text), outcome(bad)]
    assert whole == [(["v", "w"], {"e": ("v", "w"), "f": ("w", "w")}),
                     "line 8: cannot parse 'edge f w'"]
    for size in (1, 2, 5, 64):
        monkeypatch.setattr(stonedual, "SLICE", size)
        assert [outcome(text), outcome(bad)] == whole


def test_sliced_reader_cuts_after_every_kind_of_line_break(monkeypatch):
    # a slice ends after any break str.splitlines knows, never between CR and
    # LF: text broken by bare CRs is read in slices, in as little memory as
    # text broken by LFs, and a bad line gets the same numbered error
    monkeypatch.setattr(stonedual, "SLICE", 1024)
    for brk in ("\n", "\r", "\r\n", "\u2028"):
        text = ("vertex v" + brk) * 100_000
        tracemalloc.start()
        count = sum(1 for _ in stonedual.read_lines(text))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert count == 100_000 and peak < 1_000_000, (brk, peak)
        lines = ["vertex v%d" % i for i in range(3000)] + ["edge e v0"]
        with pytest.raises(ValueError, match="^line 3001: cannot parse 'edge e v0'$"):
            W.DirectedGraph.from_text(brk.join(lines) + brk)


@pytest.mark.parametrize("newline", [None, ""], ids=["universal", "kept"])
def test_sliced_file_reader_cuts_after_every_kind_of_line_break(monkeypatch, tmp_path, newline):
    # an open file, opened as the CLI opens it or with its breaks kept, comes
    # in pieces of at most SLICE characters, one readline of its bytes each:
    # it is never held whole, and a bad line gets the error the str gets
    monkeypatch.setattr(stonedual, "SLICE", 1024)
    path = tmp_path / "lines.graph"
    for brk in ("\n", "\r", "\r\n", "\u2028"):
        path.write_text(("vertex v" + brk) * 100_000, newline="")
        with open(path, newline=newline) as fh:
            tracemalloc.start()
            count = sum(1 for _ in stonedual.read_lines(fh))
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert count == 100_000 and peak < 1_000_000, (brk, peak)
        lines = ["vertex v%d" % i for i in range(3000)] + ["edge e v0"]
        path.write_text(brk.join(lines) + brk, newline="")
        with open(path, newline=newline) as fh:
            with pytest.raises(ValueError, match="^line 3001: cannot parse 'edge e v0'$"):
                W.DirectedGraph.from_text(fh)


def compose(p, q):
    """p then q (q hangs off the domain end of p), or None on mismatch: the
    graph product (p, d(p)) (q, d(q)) is (pq, d(q)), or zero when d(p) != r(q)."""
    def at_dom(path):
        return G.gisg(path, W.make_path(path.graph, W.path_dom(path), ()))

    prod = G.gisg_mul(at_dom(p), at_dom(q))
    return None if G.gisg_is_zero(prod) else prod.u


def test_path_basics():
    g = sample_graph()
    p = W.parse_path("x.z", g)
    assert p.anchor == "p"
    assert W.path_dom(p) == "q"
    assert W.format_path(p) == "x.z"
    idp = W.parse_path("@q", g)
    assert W.path_dom(idp) == idp.anchor == "q"
    assert compose(p, idp) == p
    assert compose(idp, p) is None  # d(idp) = q but r(p) = p
    with pytest.raises(ValueError):
        W.make_path(g, "p", ("z",))  # z does not end at p


def test_path_compose_order_matches_edge_direction():
    g = sample_graph()
    e2 = W.make_path(g, "p", ("x",))   # x: q -> p
    e1 = W.make_path(g, "q", ("z",))   # z: q -> q
    comp = compose(e2, e1)
    assert comp is not None
    assert comp.anchor == "p" and W.path_dom(comp) == "q"
    assert comp.edges == ("x", "z")


def test_path_compose_associative_fuzz():
    rng = random.Random(4)
    g = sample_graph()
    for _ in range(2000):
        p, q, r = (random_path(rng, g, 3) for _ in range(3))
        pq = compose(p, q)
        qr = compose(q, r)
        lhs = compose(pq, r) if pq is not None else None
        rhs = compose(p, qr) if qr is not None else None
        # defined on the same inputs, with equal results
        if pq is not None and qr is not None:
            assert lhs == rhs
        else:
            assert lhs is None or rhs is None


def test_one_vertex_graph_mirrors_words():
    g = W.one_vertex_graph(2)
    for ls in W.all_letter_tuples(2, 3):
        p = W.word_to_path(ls, 2, g)
        assert W.path_dom(p) == p.anchor == W.ROSE_VERTEX
    p = W.word_to_path((0, 1), 2, g)
    q = W.word_to_path((0,), 2, g)
    # q is a prefix of p, as the word a is of ab: the idempotent at p lies
    # below the one at q, and not the other way round
    assert G.gisg_leq(G.gisg(p, p), G.gisg(q, q))
    assert not G.gisg_leq(G.gisg(q, q), G.gisg(p, p))
