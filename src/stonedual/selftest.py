"""Seeded randomized cross-checks between modules, and the one generator of
each kind of seeded input, which the suites and the tests draw from.

Each suite takes a random.Random, returns its number of checks and raises
ValueError on a failed one.  Each suite and generator imports the layers it
uses, so a suite run loads only its own: the element suites run without
numpy.
"""


# ---------------------------------------------------------------------------
# seeded inputs


def random_word(rng, n, max_len):
    """The letters of a word over n letters, of length 0 to max_len."""
    return tuple(rng.randrange(n) for _ in range(rng.randrange(0, max_len + 1)))


def random_poly(n, rng):
    """A nonzero element of P_n whose two words have at most 2 letters."""
    from . import polycyclic as pc

    return pc.poly(n, random_word(rng, n, 2), random_word(rng, n, 2))


def random_code(n, r, rng, splits):
    """An r-rooted maximal prefix code, as a list of rooted words: the r
    roots, with a random leaf split into its n children splits times."""
    from .words import RootedWord

    code = [RootedWord(i, ()) for i in range(1, r + 1)]
    for _ in range(splits):
        w = code.pop(rng.randrange(len(code)))
        code.extend(RootedWord(w.root, w.letters + (k,)) for k in range(n))
    return code


def random_tree_pair(n, r, rng, splits):
    """Two random codes, each split splits times, randomly paired."""
    from . import thompson as th

    dom = random_code(n, r, rng, splits)
    ran = random_code(n, r, rng, splits)
    perm = list(range(len(dom)))
    rng.shuffle(perm)
    return th.tree_pair(n, r, dom, ran, perm)


def relabeled(S, rng):
    """The table S under a random permutation of its element ids, which
    sends id i to perm[i]; zero, identity and names go along."""
    import numpy as np

    from .finitesgp import MulTable

    perm = list(range(S.m))
    rng.shuffle(perm)
    p = np.array(perm)
    T2 = np.empty_like(S.T)
    T2[np.ix_(p, p)] = p[S.T]
    ident = S.find_identity()
    names = None if S.names is None else [S.names[i] for i in np.argsort(p)]
    return MulTable(T2, perm[S.zero], None if ident is None else perm[ident], names)


# ---------------------------------------------------------------------------
# suites


def _check(ok, what, *args):
    # an explicit raise: a bare assert would vanish under python -O
    if not ok:
        raise ValueError(what % args)


def _words(rng):
    from . import words as wd

    checks = 0
    for _ in range(50):
        n = rng.randrange(2, 4)
        ws = [wd.Word(n, w.letters) for w in random_code(n, 1, rng, rng.randrange(1, 5))]
        shown = ",".join(map(wd.format_word, ws))
        _check(wd.is_maximal_prefix_code(ws, n), "code %s not maximal", shown)
        _check(wd.kraft_sum(ws, n) == 1, "code %s has Kraft sum != 1", shown)
        ws.pop(rng.randrange(len(ws)))
        shown = ",".join(map(wd.format_word, ws))
        _check(not wd.is_maximal_prefix_code(ws, n), "code %s maximal", shown)
        _check(wd.kraft_sum(ws, n) < 1, "code %s has Kraft sum >= 1", shown)
        checks += 4
    return checks


def _poly(rng):
    from . import polycyclic as pc

    checks = 0
    for _ in range(100):
        n = rng.randrange(2, 4)
        a, b, c = (random_poly(n, rng) for _ in range(3))
        lhs = pc.poly_mul(pc.poly_mul(a, b), c)
        rhs = pc.poly_mul(a, pc.poly_mul(b, c))
        _check(lhs == rhs, "product of %s not associative", (a, b, c))
        aa_a = pc.poly_mul(pc.poly_mul(a, pc.poly_inv(a)), a)
        _check(aa_a == a, "a a^-1 a != a for %s", a)
        sibs = [pc.poly_mul(a, pc.poly(n, (k,), (k,))) for k in range(n)]
        children = [s for s in sibs if not pc.poly_is_zero(s)]
        _check(pc.lenz_arrow(a, children), "%s -/-> its children", a)
        checks += 3
    return checks


def _graph(rng):
    # on the one-vertex graph with n loops, path pairs are polycyclic elements
    from . import graphisg
    from . import polycyclic as pc
    from . import words as wd

    checks = 0
    for _ in range(80):
        n = rng.randrange(2, 4)
        graph = wd.one_vertex_graph(n)

        def lift(m):
            return graphisg.gisg(
                wd.word_to_path(m.y, n, graph), wd.word_to_path(m.x, n, graph)
            )

        a, b = random_poly(n, rng), random_poly(n, rng)
        p = pc.poly_mul(a, b)
        q = graphisg.gisg_mul(lift(a), lift(b))
        if pc.poly_is_zero(p):
            _check(graphisg.gisg_is_zero(q), "graph product of %s not zero", (a, b))
        else:
            _check(q == lift(p), "graph product of %s differs", (a, b))
        leq = graphisg.gisg_leq(lift(a), lift(b))
        _check(pc.poly_leq(a, b) == leq, "graph order on %s differs", (a, b))
        checks += 2
    return checks


def _finite(rng):
    from . import duality, finitesgp

    checks = 0
    for k in (2, 3):
        S = finitesgp.symmetric_inverse_monoid(k)
        rep = finitesgp.predicates(S)
        _check(rep["boolean"] and rep["fundamental"], "I(%d) predicates %s", k, rep)
        got, _ = duality.classify_symmetric(S)
        _check(got == k, "I(%d) classified as %s", k, got)
        ok, _ = duality.duality_roundtrip(S)
        _check(ok, "I(%d) fails the duality round trip", k)
        _check(finitesgp.is_zero_simplifying(S), "I(%d) not 0-simplifying", k)
        ideals = finitesgp.tightly_closed_ideals(S)
        _check(len(ideals) == 2, "I(%d) has %d tightly closed ideals", k, len(ideals))
        checks += 6
        R = relabeled(S, rng)
        got, _ = duality.classify_symmetric(R)
        _check(got == k, "relabelled I(%d) classified as %s", k, got)
        checks += 1
    return checks


def _thompson(rng):
    from . import thompson as th

    checks = 0
    for n, r in ((2, 1), (2, 2), (3, 1)):
        ident = th.tp_identity(n, r)
        for _ in range(10):
            g = random_tree_pair(n, r, rng, rng.randrange(1, 4))
            h = random_tree_pair(n, r, rng, rng.randrange(1, 4))
            _check(th.tp_mul(g, th.tp_inv(g)) == ident, "g g^-1 != 1 for %s", g)
            gh = th.tp_mul(g, h)
            unit_gh = th.cuntz_mul(th.tp_to_unit(g), th.tp_to_unit(h))
            _check(th.tp_from_unit(unit_gh) == gh, "Cuntz product is not %s", gh)
            _check(th.is_unit(th.tp_to_unit(gh)), "%s is not a unit", gh)
            checks += 3
    return checks


SELFTESTS = {
    "words": _words,
    "poly": _poly,
    "graph": _graph,
    "finite": _finite,
    "thompson": _thompson,
}
