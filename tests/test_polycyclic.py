import random

import pytest

from stonedual import polycyclic as P
from stonedual import words as W
from stonedual.selftest import random_word


def rand_elt(rng, n, max_len, zero_frac=0.05):
    if rng.random() < zero_frac:
        return P.poly_zero(n)
    return P.poly(n, random_word(rng, n, max_len), random_word(rng, n, max_len))


# ---------------------------------------------------------------------------
# independent oracle: elements as partial prefix-substitution maps

def act_oracle(s, w):
    # substitute domain word x by range word y at the front of w
    if P.poly_is_zero(s):
        return None
    x, y = s.x, s.y
    if w[: len(x)] != x:
        return None
    return y + w[len(x):]


def test_mul_matches_action_composition():
    rng = random.Random(10)
    for trial in range(20000):
        n = rng.choice([2, 3])
        s, t = rand_elt(rng, n, 4), rand_elt(rng, n, 4)
        st = P.poly_mul(s, t)
        for length in range(0, 4):
            for _ in range(2):
                w = tuple(rng.randrange(n) for _ in range(length))
                via_t = act_oracle(t, w)
                composed = act_oracle(s, via_t) if via_t is not None else None
                assert act_oracle(st, w) == composed


def test_mul_exhaustive_small_words():
    # every pair with word pieces of length <= 2 over two letters, all test words <= 4
    n = 2
    pieces = [ls for k in range(3) for ls in W.all_letter_tuples(n, k)]
    elts = [P.poly_zero(n)] + [P.poly(n, y, x) for y in pieces for x in pieces]
    test_words = [ls for k in range(5) for ls in W.all_letter_tuples(n, k)]
    for s in elts:
        for t in elts:
            st = P.poly_mul(s, t)
            for w in test_words:
                via_t = act_oracle(t, w)
                composed = act_oracle(s, via_t) if via_t is not None else None
                assert act_oracle(st, w) == composed


def test_inverse_semigroup_laws_fuzz():
    rng = random.Random(11)
    for trial in range(20000):
        n = rng.choice([2, 3])
        s, t, u = (rand_elt(rng, n, 4) for _ in range(3))
        assert P.poly_mul(P.poly_mul(s, t), u) == P.poly_mul(s, P.poly_mul(t, u))
        assert P.poly_mul(P.poly_mul(s, P.poly_inv(s)), s) == s
        e = P.poly_mul(P.poly_inv(s), s)
        f = P.poly_mul(P.poly_inv(t), t)
        assert P.poly_mul(e, f) == P.poly_mul(f, e)
        one = P.poly_one(n)
        assert P.poly_mul(one, s) == s and P.poly_mul(s, one) == s


def test_basic_identities():
    n = 2
    a = P.parse_poly("a", n)
    ainv = P.parse_poly("a^-1", n)
    assert P.poly_mul(ainv, a) == P.poly_one(n)
    assert P.poly_mul(a, ainv) == P.parse_poly("a.a^-1", n)
    s = P.parse_poly("ab.a^-1", n)
    assert P.poly_inv(s) == P.parse_poly("a.ab^-1", n)
    assert P.poly_mul(P.poly_inv(s), s) == P.parse_poly("a.a^-1", n)
    assert P.poly_mul(s, P.poly_inv(s)) == P.parse_poly("ab.ab^-1", n)
    assert P.poly_is_zero(P.poly_mul(ainv, P.parse_poly("b", n)))
    assert P.poly_mul(a, P.parse_poly("b^-1", n)) == P.parse_poly("a.b^-1", n)


def test_literal_roundtrip():
    rng = random.Random(12)
    for _ in range(500):
        n = rng.choice([2, 3, 30])
        s = rand_elt(rng, n, 4)
        assert P.parse_poly(P.format_poly(s), n) == s
    assert P.format_poly(P.poly_one(2)) == "1"
    assert P.format_poly(P.poly(2, (0, 1), ())) == "ab"
    assert P.format_poly(P.poly(2, (), (0,))) == "a^-1"
    assert P.format_poly(P.poly(2, (0, 1), (0,))) == "ab.a^-1"


# ---------------------------------------------------------------------------
# order, meets, compatibility

def oracle_leq(s, t):
    # s <= t iff s = t restricted by a common extension word
    if P.poly_is_zero(s):
        return True
    if P.poly_is_zero(t):
        return False
    k = len(s.x) - len(t.x)
    return (
        k >= 0
        and s.x[: len(t.x)] == t.x
        and s.y == t.y + s.x[len(t.x):]
    )


def test_order_and_meet_fuzz():
    rng = random.Random(13)
    for trial in range(20000):
        n = rng.choice([2, 3])
        s, t = rand_elt(rng, n, 4), rand_elt(rng, n, 4)
        assert P.poly_leq(s, t) == oracle_leq(s, t)
        # s <= t iff s = t d(s)
        if not P.poly_is_zero(s):
            assert P.poly_leq(s, t) == (s == P.poly_mul(t, P.poly_mul(P.poly_inv(s), s)))
        m = P.poly_meet(s, t)
        assert P.poly_leq(m, s) and P.poly_leq(m, t)
        # meets here are always one of the arguments or zero
        assert m in (s, t) or P.poly_is_zero(m)
        # greatest: anything below both is below m (elements below s form a chain tree)
        if not P.poly_is_zero(s) and not P.poly_is_zero(t):
            w = random_word(rng, n, 3)
            below = P.poly(n, s.y + w, s.x + w)
            if P.poly_leq(below, t):
                assert P.poly_leq(below, m)


def test_compatible_pairs_are_comparable_or_orthogonal():
    rng = random.Random(14)
    seen_comparable = seen_orthogonal = 0
    for trial in range(30000):
        n = 2
        s, t = rand_elt(rng, n, 3), rand_elt(rng, n, 3)
        if P.poly_compatible(s, t):
            if P.poly_orthogonal(s, t):
                seen_orthogonal += 1
            else:
                assert P.poly_leq(s, t) or P.poly_leq(t, s)
                seen_comparable += 1
    assert seen_comparable > 100 and seen_orthogonal > 100


def test_e_star_unitary_fuzz():
    # nothing nonzero and idempotent sits below a non-idempotent
    rng = random.Random(15)
    for trial in range(20000):
        n = rng.choice([2, 3])
        s = rand_elt(rng, n, 4, zero_frac=0)
        w = random_word(rng, n, 3)
        below = P.poly(n, s.y + w, s.x + w)
        assert P.poly_leq(below, s)
        if P.poly_is_idempotent(below):
            assert P.poly_is_idempotent(s)


# ---------------------------------------------------------------------------
# arrow and covers

def oracle_meet_nonzero(s, t):
    return oracle_leq(s, t) or oracle_leq(t, s)


def arrow_oracle(a, B, extra_depth=2):
    """Enumerate every extension of a to depth L + extra_depth and test it
    against B directly."""
    nz = [b for b in B if not P.poly_is_zero(b)]
    tails = [
        m.x[len(a.x):]
        for m in (P.poly_meet(a, b) for b in nz)
        if not P.poly_is_zero(m)
    ]
    depth = (max(len(t) for t in tails) if tails else 0) + extra_depth
    for k in range(depth + 1):
        for w in W.all_letter_tuples(a.n, k):
            below = P.poly(a.n, a.y + w, a.x + w)
            if not any(oracle_meet_nonzero(below, b) for b in nz):
                return False
    return True


def rand_arrow_instance(rng, n, max_len):
    a = rand_elt(rng, n, max_len, zero_frac=0)
    B = []
    for _ in range(rng.randrange(0, 5)):
        if rng.random() < 0.7:
            w = random_word(rng, n, 3)
            B.append(P.poly(n, a.y + w, a.x + w))
        else:
            B.append(rand_elt(rng, n, max_len))
    return a, B


def test_lenz_arrow_vs_bruteforce():
    rng = random.Random(16)
    for trial in range(3000):
        n = rng.choice([2, 3])
        a, B = rand_arrow_instance(rng, n, 4)
        assert P.lenz_arrow(a, B) == arrow_oracle(a, B)


def test_arrow_simple_cases():
    n = 2
    one = P.poly_one(n)
    aa = P.parse_poly("a.a^-1", n)
    ba = P.parse_poly("ba.ba^-1", n)
    bb = P.parse_poly("bb.bb^-1", n)
    assert P.lenz_arrow(one, [aa, ba, bb])
    assert not P.lenz_arrow(one, [aa, ba])
    assert P.is_cover(one, [aa, ba, bb])
    assert not P.is_cover(P.parse_poly("a.a^-1", n), [one])  # one is not below a.a^-1
    with pytest.raises(ValueError):
        P.lenz_arrow(P.poly_zero(n), [one])


def test_leq_implies_arrow():
    rng = random.Random(17)
    for trial in range(5000):
        n = rng.choice([2, 3])
        b = rand_elt(rng, n, 4, zero_frac=0)
        w = random_word(rng, n, 3)
        a = P.poly(n, b.y + w, b.x + w)  # a <= b
        assert P.lenz_arrow(a, [b])


def test_arrow_detects_maximal_prefix_codes():
    from tests_support_codes import random_prefix_code

    rng = random.Random(18)
    for trial in range(300):
        n = rng.choice([2, 3])
        code = random_prefix_code(rng, n, 6)
        idems = [P.poly(n, c, c) for c in code]
        expect = W.is_maximal_prefix_code({W.Word(n, c) for c in code}, n)
        assert P.lenz_arrow(P.poly_one(n), idems) == expect


# ---------------------------------------------------------------------------
# r-fold variant

def rand_ext(rng, n, r, max_len, zero_frac=0.05):
    if rng.random() < zero_frac:
        return P.ext_zero(n, r)
    return P.ext(
        n,
        r,
        rng.randrange(1, r + 1),
        rand_elt(rng, n, max_len, zero_frac=0),
        rng.randrange(1, r + 1),
    )


def test_ext_products():
    s = P.parse_ext("(1|a,1|2)", 2, 2)
    t = P.parse_ext("(2|b,ba|1)", 2, 2)
    assert P.format_ext(P.ext_mul(s, t)) == "(1|ab,ba|1)"
    # inner roots disagree: zero
    assert P.ext_is_zero(P.ext_mul(s, s))
    assert P.format_ext(P.ext_inv(s)) == "(2|1,a|1)"


def rooted(p):
    """p in the r = 1 variant."""
    return P.ext_zero(p.n, 1) if P.poly_is_zero(p) else P.ext(p.n, 1, 1, p, 1)


def test_ext_laws_fuzz():
    rng = random.Random(19)
    for trial in range(20000):
        n, r = rng.choice([(2, 2), (2, 3), (3, 2)])
        s, t, u = (rand_ext(rng, n, r, 3) for _ in range(3))
        assert P.ext_mul(P.ext_mul(s, t), u) == P.ext_mul(s, P.ext_mul(t, u))
        assert P.ext_mul(P.ext_mul(s, P.ext_inv(s)), s) == s
        e, f = P.ext_mul(P.ext_inv(s), s), P.ext_mul(P.ext_inv(t), t)
        assert P.ext_mul(e, f) == P.ext_mul(f, e)
        # order: restriction of s sits below s
        if not P.ext_is_zero(s):
            w = random_word(rng, n, 2)
            below = P.ext(n, r, s.i, P.poly(n, s.m.y + w, s.m.x + w), s.j)
            assert P.ext_leq(below, s)
            assert P.ext_meet(below, s) == below
            assert P.ext_compatible(below, s)
        # at r = 1 the r-rooted variant is P_n itself
        p, q = rand_elt(rng, n, 3), rand_elt(rng, n, 3)
        ep, eq = rooted(p), rooted(q)
        assert P.ext_meet(ep, eq) == rooted(P.poly_meet(p, q))
        assert P.ext_compatible(ep, eq) == P.poly_compatible(p, q)
        assert P.ext_orthogonal(ep, eq) == P.poly_orthogonal(p, q)
        if not P.poly_is_zero(p):
            w = random_word(rng, n, 2)
            B = [q, P.poly_mul(p, P.poly(n, w, w))]
            got = P.ext_lenz_arrow(ep, [rooted(b) for b in B])
            assert got == P.lenz_arrow(p, B)


def test_ext_roundtrip_and_matrix_meets():
    rng = random.Random(20)
    for _ in range(500):
        n, r = rng.choice([(2, 2), (3, 3)])
        s = rand_ext(rng, n, r, 3)
        assert P.parse_ext(P.format_ext(s), n, r) == s
    a = P.parse_ext("(1|a,a|1)", 2, 2)
    b = P.parse_ext("(2|a,a|2)", 2, 2)
    assert P.ext_is_zero(P.ext_meet(a, b))
    assert P.ext_orthogonal(a, b)
    assert P.ext_lenz_arrow(
        P.parse_ext("(1|1,1|1)", 2, 2),
        [P.parse_ext("(1|a,a|1)", 2, 2), P.parse_ext("(1|b,b|1)", 2, 2)],
    )
    assert not P.ext_lenz_arrow(
        P.parse_ext("(1|1,1|1)", 2, 2), [P.parse_ext("(2|a,a|2)", 2, 2)]
    )
