import random

import pytest

from stonedual import graphisg as G
from stonedual import polycyclic as P
from stonedual import words as W
from tests_support_codes import random_path


def two_vertex_graph():
    # two parallel edges q -> p plus a loop at q
    return W.DirectedGraph(
        ["p", "q"], [("x", "q", "p"), ("y", "q", "p"), ("z", "q", "q")]
    )


def fan_graph():
    # p fed by q and o; o fed by o2; q is a dead end (in-degree 0)
    return W.DirectedGraph(
        ["p", "q", "o", "o2"],
        [("x", "q", "p"), ("y", "o", "p"), ("w", "o2", "o")],
    )


def rand_elt(rng, g, max_len, zero_frac=0.05):
    if rng.random() < zero_frac:
        return G.gisg_zero(g)
    v = random_path(rng, g, max_len)
    # u must share v's domain vertex
    anchor = rng.choice(g.vertices)
    u = None
    for _ in range(30):
        cand = random_path(rng, g, max_len)
        if W.path_dom(cand) == W.path_dom(v):
            u = cand
            break
    if u is None:
        u = v
    return G.gisg(u, v)


# ---------------------------------------------------------------------------
# independent oracle: elements as partial maps on paths

def act_oracle(s, p):
    if G.gisg_is_zero(s):
        return None
    v, u = s.v, s.u
    if p.anchor != v.anchor or p.edges[: len(v.edges)] != v.edges:
        return None
    rest = p.edges[len(v.edges):]
    return W.Path(p.graph, u.anchor, u.edges + rest)


def test_act_checks_the_graph_of_the_path_first():
    # zero acts on the paths of its own graph only, as every other element
    # does, and as the polycyclic zero acts on words of its own alphabet only
    g, h = two_vertex_graph(), fan_graph()
    p = random_path(random.Random(7), h, 3)
    for s in (G.gisg_zero(g), rand_elt(random.Random(8), g, 2, zero_frac=0)):
        with pytest.raises(ValueError, match="path from a different graph"):
            G.gisg_act(s, p)
    assert G.gisg_act(G.gisg_zero(h), p) is None


def test_mul_matches_action_composition():
    rng = random.Random(30)
    for g in (two_vertex_graph(), fan_graph()):
        for trial in range(8000):
            s, t = rand_elt(rng, g, 3), rand_elt(rng, g, 3)
            st = G.gisg_mul(s, t)
            for _ in range(6):
                p = random_path(rng, g, 4)
                via_t = act_oracle(t, p)
                composed = act_oracle(s, via_t) if via_t is not None else None
                assert act_oracle(st, p) == composed
                assert G.gisg_act(st, p) == composed


def test_inverse_semigroup_laws_fuzz():
    rng = random.Random(31)
    for g in (two_vertex_graph(), fan_graph()):
        for trial in range(8000):
            s, t, u = (rand_elt(rng, g, 3) for _ in range(3))
            assert G.gisg_mul(G.gisg_mul(s, t), u) == G.gisg_mul(s, G.gisg_mul(t, u))
            assert G.gisg_mul(G.gisg_mul(s, G.gisg_inv(s)), s) == s
            e, f = G.gisg_mul(G.gisg_inv(s), s), G.gisg_mul(G.gisg_inv(t), t)
            assert G.gisg_mul(e, f) == G.gisg_mul(f, e)


def test_literal_products():
    g = two_vertex_graph()
    xz = G.parse_gisg("x.z/y.z", g)
    assert G.gisg_inv(xz) == G.parse_gisg("y.z/x.z", g)
    assert G.format_gisg(xz) == "x.z/y.z"
    idq = G.parse_gisg("@q/@q", g)
    assert G.gisg_is_idempotent(idq)
    assert G.format_gisg(idq) == "@q/@q"
    # x/y maps y-extensions to x-extensions; composing with y/x gives xx^-1
    xy = G.parse_gisg("x/y", g)
    yx = G.parse_gisg("y/x", g)
    assert G.gisg_mul(xy, yx) == G.parse_gisg("x/x", g)
    assert G.gisg_is_zero(G.gisg_mul(xy, xy))
    # identity at p absorbs on the range side
    idp = G.parse_gisg("@p/@p", g)
    assert G.gisg_mul(idp, xy) == xy
    assert G.gisg_is_zero(G.gisg_mul(idq, xy))


def test_literal_roundtrip():
    rng = random.Random(32)
    for g in (two_vertex_graph(), fan_graph()):
        for _ in range(300):
            s = rand_elt(rng, g, 3)
            assert G.parse_gisg(G.format_gisg(s), g) == s
    with pytest.raises(ValueError):
        G.parse_gisg("x.z", two_vertex_graph())


# ---------------------------------------------------------------------------
# order / meets / compatibility mirror the one-vertex word case

def test_one_vertex_graph_is_polycyclic():
    n = 2
    g = W.one_vertex_graph(n)

    def lift(s):
        if P.poly_is_zero(s):
            return G.gisg_zero(g)
        return G.gisg(W.word_to_path(s.y, n, g), W.word_to_path(s.x, n, g))

    pieces = [ls for k in range(4) for ls in W.all_letter_tuples(n, k)]
    elts = [P.poly_zero(n)] + [P.poly(n, y, x) for y in pieces for x in pieces]
    lifted = [lift(s) for s in elts]
    # bijective up to the encoding, multiplicative, order preserving
    assert len(set(lifted)) == len(elts)
    rng, act_rng = random.Random(33), random.Random(36)
    for trial in range(4000):
        i, j = rng.randrange(len(elts)), rng.randrange(len(elts))
        s, t = elts[i], elts[j]
        assert lift(P.poly_mul(s, t)) == G.gisg_mul(lifted[i], lifted[j])
        assert P.poly_leq(s, t) == G.gisg_leq(lifted[i], lifted[j])
        assert lift(P.poly_meet(s, t)) == G.gisg_meet(lifted[i], lifted[j])
        assert P.poly_compatible(s, t) == G.gisg_compatible(lifted[i], lifted[j])
        assert P.poly_orthogonal(s, t) == G.gisg_orthogonal(lifted[i], lifted[j])
        # the action on an extension of s's domain word and on any word
        for w in ((s.x or ()) + act_rng.choice(pieces), act_rng.choice(pieces)):
            image = P.poly_act(s, W.Word(n, w))
            got = G.gisg_act(lifted[i], W.word_to_path(w, n, g))
            assert got == (None if image is None else W.word_to_path(image.letters, n, g))
        if not P.poly_is_zero(s):
            # targets: t and some restrictions of s, so both answers occur
            ks = [rng.randrange(len(pieces)) for _ in range(rng.randrange(4))]
            B = [t] + [P.poly_mul(s, P.poly(n, pieces[k], pieces[k])) for k in ks]
            got = G.gisg_lenz_arrow(lifted[i], [lift(b) for b in B])
            assert P.lenz_arrow(s, B) == got


def test_properties_fuzz():
    # combinatorial + unambiguous + only idempotents under idempotents
    rng = random.Random(34)
    for g in (two_vertex_graph(), fan_graph()):
        for trial in range(8000):
            s, t = rand_elt(rng, g, 3, zero_frac=0), rand_elt(rng, g, 3, zero_frac=0)
            e, f = G.gisg_mul(G.gisg_inv(s), s), G.gisg_mul(t, G.gisg_inv(t))
            if e == G.gisg_mul(G.gisg_inv(t), t) and f == G.gisg_mul(s, G.gisg_inv(s)):
                assert s == t  # H-trivial
            ef = G.gisg_mul(e, f)
            if not G.gisg_is_zero(ef):
                assert G.gisg_leq(e, f) or G.gisg_leq(f, e)  # unambiguous
            if not G.gisg_is_zero(G.gisg_meet(s, f)):
                # a nonzero element under an idempotent is idempotent, and a
                # nonzero idempotent below s forces s idempotent
                assert G.gisg_is_idempotent(s)


# ---------------------------------------------------------------------------
# arrow with dead branches

def gisg_arrow_oracle(a, B, extra_depth=2):
    g = a.graph
    nz = [b for b in B if not G.gisg_is_zero(b)]
    tails = [
        m.v.edges[len(a.v.edges):]
        for m in (G.gisg_meet(a, b) for b in nz)
        if not G.gisg_is_zero(m)
    ]
    depth = (max(len(t) for t in tails) if tails else 0) + extra_depth

    def exts(vertex, k):
        yield ()
        if k == 0:
            return
        for e in g.in_edges[vertex]:
            for rest in exts(g.edge_src(e), k - 1):
                yield (e,) + rest

    start = W.path_dom(a.v)
    for w in exts(start, depth):
        below = G.gisg(
            W.Path(g, a.u.anchor, a.u.edges + w),
            W.Path(g, a.v.anchor, a.v.edges + w),
        )
        if not any(
            not G.gisg_is_zero(G.gisg_meet(below, b)) for b in nz
        ):
            return False
    return True


def test_arrow_vs_bruteforce():
    rng = random.Random(35)
    for g in (two_vertex_graph(), fan_graph()):
        for trial in range(1500):
            a = rand_elt(rng, g, 3, zero_frac=0)
            B = []
            for _ in range(rng.randrange(0, 5)):
                if rng.random() < 0.7:
                    w = random_path(rng, g, 2)
                    if w.anchor == W.path_dom(a.v):
                        B.append(
                            G.gisg(
                                W.Path(g, a.u.anchor, a.u.edges + w.edges),
                                W.Path(g, a.v.anchor, a.v.edges + w.edges),
                            )
                        )
                        continue
                B.append(rand_elt(rng, g, 3))
            assert G.gisg_lenz_arrow(a, B) == gisg_arrow_oracle(a, B)


def test_arrow_dead_branch_cases():
    g = fan_graph()
    idp = G.parse_gisg("@p/@p", g)
    xx = G.parse_gisg("x/x", g)
    yy = G.parse_gisg("y/y", g)
    yw = G.parse_gisg("y.w/y.w", g)
    # x and y exhaust the in-edges of p and both branches stop there or later
    assert G.gisg_lenz_arrow(idp, [xx, yy])
    assert G.gisg_lenz_arrow(idp, [xx, yw])  # y branch dies at depth 2: covered at y.w
    assert not G.gisg_lenz_arrow(idp, [xx])  # y branch never covered
    assert not G.gisg_lenz_arrow(idp, [yw])  # x branch never covered
    # the q identity is 0-minimal: anything nonzero below it is itself
    idq = G.parse_gisg("@q/@q", g)
    assert G.gisg_lenz_arrow(idq, [idq])
    assert not G.gisg_lenz_arrow(idq, [xx])  # xx^-1 is not below nor meets @q


def test_semilattice_predicates():
    preds = G.semilattice_predicates(two_vertex_graph())
    # p has in-degree 2, q has in-degree 1 (the loop z)
    assert preds["no_zero_minimal"] is True
    assert preds["zero_disjunctive"] is False
    g2 = W.DirectedGraph(["p", "q"], [("x", "q", "p"), ("y", "q", "p")])
    preds2 = G.semilattice_predicates(g2)
    assert preds2 == {
        "no_zero_minimal": False,
        "zero_disjunctive": True,
        "pseudofinite": True,
        "pre_boolean": True,
        "in_degree_zero_vertices": ["q"],
    }
    g3 = W.DirectedGraph(["v", "w"], [("a", "v", "w")])
    preds3 = G.semilattice_predicates(g3)
    assert preds3["zero_disjunctive"] is False  # w has in-degree exactly 1
    g4 = W.one_vertex_graph(2)
    preds4 = G.semilattice_predicates(g4)
    assert preds4["no_zero_minimal"] is True
    assert preds4["zero_disjunctive"] is True
    assert preds4["in_degree_zero_vertices"] == []
