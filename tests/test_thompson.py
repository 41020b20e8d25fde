"""Cuntz monoid arithmetic and tree pairs for the unit groups.

Independent oracles, defined before use:
  - depth expansion: an element is the join of its restrictions at any fixed
    x-depth, and two expansions at the same depth describe the same join iff
    they are equal as sets; this decides eq, meet, join and mul without
    touching normalization or the arrow test
  - exact-depth arrow: brute-force restriction of the source to one uniform
    depth, instead of the tail-covering argument in the library
  - prefix map action: tree pairs act on all long enough rooted words, and
    composition of actions decides products in the unit group
"""

import copy
import itertools
import pickle
import random
import re
from collections import Counter

import pytest

from stonedual import cli
from stonedual import polycyclic as pc
from stonedual import thompson as th
from stonedual import words as wd
from stonedual.selftest import random_tree_pair
from stonedual.words import RootedWord, is_rooted_maximal_prefix_code


def part(text, n=2, r=1, i=1, j=1):
    return pc.ext(n, r, i, pc.parse_poly(text, n), j)


def celem(texts, n=2):
    return th.cuntz(n, 1, [part(t, n) for t in texts])


def restricted(p, w):
    return pc.ext(p.n, p.r, p.i, pc.poly(p.n, p.m.y + w, p.m.x + w), p.j)


def expand_parts(parts, n, r, depth):
    """All restrictions at one x-depth; canonical for the join of the parts."""
    out = set()
    for p in parts:
        assert len(p.m.x) <= depth
        for w in itertools.product(range(n), repeat=depth - len(p.m.x)):
            out.add(restricted(p, w))
    return out


def parts_depth(*part_sets):
    return max((len(p.m.x) for ps in part_sets for p in ps), default=0)


def oracle_eq_parts(A, B, n, r):
    d = parts_depth(A, B)
    return expand_parts(A, n, r, d) == expand_parts(B, n, r, d)


def oracle_eq(x, y):
    return oracle_eq_parts(x.parts, y.parts, x.n, x.r)


def nonzero_products(x, y, op):
    prods = [op(a, b) for a in x.parts for b in y.parts]
    return [p for p in prods if not pc.ext_is_zero(p)]


def brute_arrow(a, B, n):
    """Restrict a to every word at one fixed depth and look for a meet."""
    B = [b for b in B if not pc.ext_is_zero(b)]
    if not B:
        return False
    depth = max(len(b.m.x) for b in B) + 1
    for w in itertools.product(range(n), repeat=max(0, depth - len(a.m.x))):
        aw = restricted(a, w)
        if all(pc.ext_is_zero(pc.ext_meet(aw, b)) for b in B):
            return False
    return True


def mutual_brute_arrow(A, B, n):
    return all(brute_arrow(a, B, n) for a in A) and all(
        brute_arrow(b, A, n) for b in B
    )


def act(g, w):
    """Apply the prefix map: defined iff some domain word is a prefix of w."""
    if w is None:
        return None
    for p in range(len(g.domain)):
        d = g.domain[p]
        if d.root == w.root and w.letters[: len(d.letters)] == d.letters:
            img = g.range[g.perm[p]]
            return RootedWord(img.root, img.letters + w.letters[len(d.letters):])
    return None


def tp_depth(g):
    return max(len(w.letters) for w in g.domain + g.range)


def all_rooted(n, r, length):
    for root in range(1, r + 1):
        for tup in itertools.product(range(n), repeat=length):
            yield RootedWord(root, tup)


def check_action_oracle(g, h, gh):
    length = max(tp_depth(g), tp_depth(h), tp_depth(gh)) + 2
    for w in all_rooted(g.n, g.r, length):
        assert act(gh, w) == act(g, act(h, w))


def random_element(n, r, rng, splits=3):
    """Parts of a random unit, some dropped, some restricted deeper: still
    pairwise compatible but in general neither orthogonal nor maximal."""
    base = sorted(th.tp_to_unit(random_tree_pair(n, r, rng, splits)).parts,
                  key=th._part_key)
    parts = [p for p in base if rng.random() < 0.8]
    for p in list(parts):
        if rng.random() < 0.4:
            w = tuple(rng.randrange(n) for _ in range(rng.randrange(1, 3)))
            parts.append(restricted(p, w))
    return th.cuntz(n, r, parts)


def expand_random_family(x, rng):
    """Replace one part by its full sibling family: the join is unchanged."""
    parts = list(x.parts)
    if not parts:
        return x
    p = parts.pop(rng.randrange(len(parts)))
    parts.extend(restricted(p, (k,)) for k in range(x.n))
    return th.cuntz(x.n, x.r, parts)


PARAMS = [(2, 1), (2, 2), (3, 1), (3, 2)]


# ---------------------------------------------------------------------------
# element construction


def test_cuntz_drops_zeros_and_duplicates():
    a = part("a.a^-1")
    x = th.cuntz(2, 1, [a, a, pc.ext_zero(2, 1)])
    assert x.parts == frozenset([a])
    assert th.cuntz_zero(2, 1).parts == frozenset()
    assert th.cuntz_one(2, 1).parts == frozenset([part("1")])
    assert th.cuntz_one(2, 2).parts == frozenset(
        [part("1", 2, 2, 1, 1), part("1", 2, 2, 2, 2)]
    )


def test_cuntz_rejects_bad_parts():
    with pytest.raises(ValueError, match="parameter mismatch"):
        th.cuntz(2, 1, [part("1", 2, 2, 1, 1)])
    with pytest.raises(ValueError, match="not pairwise compatible"):
        th.cuntz(2, 1, [part("a.b^-1"), part("a.a^-1")])
    with pytest.raises(TypeError):
        th.cuntz(2, 1, [pc.parse_poly("a.a^-1", 2)])
    with pytest.raises(ValueError, match="alphabet size"):
        th.cuntz(1, 1, [])
    with pytest.raises(ValueError, match="root count"):
        th.cuntz(2, 0, [])


# ---------------------------------------------------------------------------
# normalization


def test_normalize_glues_maximal_prefix_code_cover():
    x = celem(["a.a^-1", "ba.ba^-1", "bb.bb^-1"])
    assert th.cuntz_normalize(x).parts == frozenset([part("1")])
    # same glue under a second root that stays put
    y = th.cuntz(2, 2, [part("a.a^-1", 2, 2), part("ba.ba^-1", 2, 2),
                        part("bb.bb^-1", 2, 2), part("1", 2, 2, 2, 2)])
    assert th.cuntz_normalize(y).parts == th.cuntz_one(2, 2).parts
    # two cascaded glue steps from the depth-2 cover
    z = celem(["aa.aa^-1", "ab.ab^-1", "ba.ba^-1", "bb.bb^-1"])
    assert th.cuntz_normalize(z).parts == frozenset([part("1")])


def test_normalize_discards_dominated_parts():
    x = celem(["a.a^-1", "ab.ab^-1"])
    assert th.cuntz_normalize(x).parts == frozenset([part("a.a^-1")])


def test_normalize_fixes_normal_forms():
    x = celem(["a.b^-1"])
    assert th.cuntz_normalize(x).parts == x.parts
    one = th.cuntz_one(2, 1)
    assert th.cuntz_normalize(one).parts == one.parts
    # orthogonal but not a sibling family: y words disagree, nothing to glue
    u = celem(["aa.a^-1", "ab.ba^-1", "b.bb^-1"])
    assert th.cuntz_normalize(u).parts == u.parts


def test_normalize_preserves_class():
    rng = random.Random(11)
    for n, r in PARAMS:
        for _ in range(25):
            x = random_element(n, r, rng)
            y = th.cuntz_normalize(x)
            if not x.parts:
                assert not y.parts
                continue
            assert mutual_brute_arrow(x.parts, y.parts, n)
            assert oracle_eq(x, y)


def test_normalize_output_is_normal():
    rng = random.Random(12)
    for n, r in PARAMS:
        for _ in range(25):
            y = th.cuntz_normalize(random_element(n, r, rng))
            for a, b in itertools.combinations(y.parts, 2):
                assert pc.ext_orthogonal(a, b)
            for p in y.parts:
                if p.m.y and p.m.x and p.m.y[-1] == p.m.x[-1]:
                    sibs = [
                        pc.ext(n, r, p.i,
                               pc.poly(n, p.m.y[:-1] + (k,), p.m.x[:-1] + (k,)),
                               p.j)
                        for k in range(n)
                    ]
                    assert not all(s in y.parts for s in sibs)


def test_normalize_unique_across_representatives():
    rng = random.Random(13)
    for n, r in PARAMS:
        for _ in range(25):
            x = random_element(n, r, rng)
            base = th.cuntz_normalize(x).parts
            y = x
            for _ in range(3):
                y = expand_random_family(y, rng)
            assert th.cuntz_normalize(y).parts == base


def ext1(text, r=1, root=1):
    return pc.ext(2, r, root, pc.parse_poly(text, 2), root)


def normal_parts(parts, r=1):
    return th.cuntz_normalize(th.cuntz(2, r, parts)).parts


def test_normalize_keeps_the_maximal_parts():
    aa, abab = ext1("a.a^-1"), ext1("ab.ab^-1")
    assert normal_parts([aa, abab]) == {aa}
    # orthogonal and nothing to glue: every part stays
    trio = [aa, ext1("ba.bb^-1"), ext1("bb.ba^-1")]
    assert normal_parts(trio) == set(trio)
    assert normal_parts([]) == frozenset()
    # a zero part, which products leave, adds nothing to the join
    zero = pc.ext_zero(2, 1)
    for parts in ([zero], [zero, aa]):
        raw = th.CuntzElement(2, 1, frozenset(parts))
        assert th.cuntz_normalize(raw).parts == set(parts) - {zero}
    raw = th.CuntzElement(2, 1, frozenset([ext1("a"), ext1("b")]))
    with pytest.raises(ValueError, match="not pairwise compatible"):
        th.cuntz_normalize(raw)


def test_normalize_keeps_the_maximal_parts_rooted():
    aa, abab = ext1("a.a^-1", 2), ext1("ab.ab^-1", 2)
    other = ext1("b.b^-1", 2, 2)
    assert normal_parts([abab, aa, other], 2) == {aa, other}


def test_normalize_keeps_the_top_of_a_chain():
    # fuzz: a chain of restrictions of one part keeps only its top, and the
    # top lies over every member
    rng = random.Random(11)
    for n, r in PARAMS:
        for _ in range(50):
            w = [rng.randrange(n) for _ in range(rng.randrange(4))]
            root = rng.randrange(1, r + 1)
            top = pc.ext(n, r, root, pc.poly(n, (), ()), root)
            fam = [restricted(top, tuple(w[:cut])) for cut in range(len(w) + 1)]
            rng.shuffle(fam)
            kept = th.cuntz_normalize(th.cuntz(n, r, fam)).parts
            assert kept == {top}
            assert all(pc.ext_leq(x, top) for x in fam)


def test_normalize_rejects_incompatible_raw_parts():
    raw = th.CuntzElement(
        2, 1, frozenset([part("a.b^-1"), part("a.a^-1")])
    )
    with pytest.raises(ValueError, match="not pairwise compatible"):
        th.cuntz_normalize(raw)


# ---------------------------------------------------------------------------
# arithmetic


def test_mul_identity_law():
    one = th.cuntz_one(2, 1)
    x = celem(["ab.b^-1"])
    assert th.cuntz_mul(one, x).parts == x.parts
    assert th.cuntz_mul(x, one).parts == x.parts


def test_unit_times_inverse_is_one():
    u = celem(["aa.a^-1", "ab.ba^-1", "b.bb^-1"])
    one = th.cuntz_one(2, 1)
    assert th.cuntz_mul(u, th.cuntz_inv(u)).parts == one.parts
    assert th.cuntz_mul(th.cuntz_inv(u), u).parts == one.parts


def test_mul_matches_expansion_oracle():
    rng = random.Random(21)
    for n, r in PARAMS:
        for _ in range(20):
            x = random_element(n, r, rng)
            y = random_element(n, r, rng)
            z = th.cuntz_mul(x, y)
            prods = nonzero_products(x, y, pc.ext_mul)
            assert oracle_eq_parts(prods, z.parts, n, r)


def test_inverse_semigroup_laws():
    rng = random.Random(22)
    for n, r in PARAMS:
        for _ in range(15):
            x = random_element(n, r, rng)
            xi = th.cuntz_inv(x)
            assert th.cuntz_eq(th.cuntz_mul(th.cuntz_mul(x, xi), x), x)
            assert th.cuntz_inv(xi).parts == th.cuntz_normalize(x).parts


def test_meet_matches_expansion_oracle():
    rng = random.Random(23)
    for n, r in PARAMS:
        for _ in range(20):
            x = random_element(n, r, rng)
            y = random_element(n, r, rng)
            z = th.cuntz_meet(x, y)
            d = parts_depth(x.parts, y.parts, z.parts)
            lhs = expand_parts(x.parts, n, r, d) & expand_parts(y.parts, n, r, d)
            assert expand_parts(z.parts, n, r, d) == lhs


def test_join_glues_code_cover():
    x = celem(["a.a^-1"])
    y = celem(["ba.ba^-1", "bb.bb^-1"])
    assert th.cuntz_join(x, y).parts == th.cuntz_one(2, 1).parts


def test_join_matches_expansion_oracle():
    rng = random.Random(24)
    for n, r in PARAMS:
        for _ in range(20):
            g = random_tree_pair(n, r, rng, 3)
            parts = sorted(th.tp_to_unit(g).parts, key=th._part_key)
            cut = rng.randrange(len(parts) + 1)
            x = th.cuntz(n, r, parts[:cut])
            y = th.cuntz(n, r, parts[cut:])
            z = th.cuntz_join(x, y)
            d = parts_depth(parts, z.parts)
            lhs = expand_parts(x.parts, n, r, d) | expand_parts(y.parts, n, r, d)
            assert expand_parts(z.parts, n, r, d) == lhs


def test_join_rejects_incompatible():
    with pytest.raises(ValueError, match="not pairwise compatible"):
        th.cuntz_join(celem(["a.b^-1"]), celem(["a.a^-1"]))


def test_eq_examples():
    one = th.cuntz_one(2, 1)
    assert th.cuntz_eq(one, celem(["a.a^-1", "ba.ba^-1", "bb.bb^-1"]))
    assert not th.cuntz_eq(celem(["a.a^-1"]), celem(["b.b^-1"]))
    x = celem(["ab.b^-1"])
    assert th.cuntz_eq(x, x)
    assert th.cuntz_eq(th.cuntz_zero(2, 1), th.cuntz_zero(2, 1))
    assert not th.cuntz_eq(th.cuntz_zero(2, 1), one)


def test_eq_agrees_with_expansion_oracle():
    rng = random.Random(25)
    for n, r in PARAMS:
        for _ in range(20):
            x = random_element(n, r, rng)
            y = expand_random_family(x, rng)
            z = random_element(n, r, rng)
            assert th.cuntz_eq(x, y)
            assert oracle_eq(x, y)
            assert th.cuntz_eq(x, z) == oracle_eq(x, z)


def test_parameter_mismatch_is_rejected():
    x = th.cuntz_one(2, 1)
    y = th.cuntz_one(2, 2)
    for op in (th.cuntz_mul, th.cuntz_meet, th.cuntz_join, th.cuntz_eq):
        with pytest.raises(ValueError, match="parameter mismatch"):
            op(x, y)
    with pytest.raises(ValueError, match="parameter mismatch"):
        th.tp_mul(th.tp_identity(2, 1), th.tp_identity(2, 2))
    with pytest.raises(ValueError, match="parameter mismatch"):
        th.tp_eq(th.tp_identity(3, 1), th.tp_identity(2, 1))


# ---------------------------------------------------------------------------
# units


def test_is_unit_examples():
    assert th.is_unit(celem(["aa.a^-1", "ab.ba^-1", "b.bb^-1"]))
    assert not th.is_unit(celem(["a.a^-1"]))
    assert th.is_unit(th.cuntz_one(2, 1))
    assert not th.is_unit(th.cuntz_zero(2, 1))
    assert not th.is_unit(celem(["a.b^-1"]))
    # both roots must be covered on both sides
    assert th.is_unit(th.cuntz(2, 2, [part("1", 2, 2, 1, 2),
                                      part("1", 2, 2, 2, 1)]))
    assert not th.is_unit(th.cuntz(2, 2, [part("1", 2, 2, 1, 1)]))


def test_units_are_closed_under_mul_and_inv():
    rng = random.Random(31)
    for n, r in PARAMS:
        for _ in range(10):
            x = th.tp_to_unit(random_tree_pair(n, r, rng, 3))
            y = th.tp_to_unit(random_tree_pair(n, r, rng, 3))
            assert th.is_unit(th.cuntz_mul(x, y))
            assert th.is_unit(th.cuntz_inv(x))


# ---------------------------------------------------------------------------
# tree pairs


def test_tree_pair_canonicalizes_order():
    # b -> a and a -> b, listed out of order
    g = th.tree_pair(
        2, 1,
        [RootedWord(1, (1,)), RootedWord(1, (0,))],
        [RootedWord(1, (0,)), RootedWord(1, (1,))],
        [0, 1],
    )
    assert th.format_tree_pair(g) == "{a,b}->{a,b}:perm=[1,0]"


def test_tree_pair_rejects_bad_input():
    a, b = RootedWord(1, (0,)), RootedWord(1, (1,))
    with pytest.raises(ValueError, match="same size"):
        th.tree_pair(2, 1, [a, b], [a], [0, 1])
    with pytest.raises(ValueError, match="permutation"):
        th.tree_pair(2, 1, [a, b], [a, b], [0, 0])
    with pytest.raises(ValueError, match="domain code"):
        th.tree_pair(2, 1, [a, a], [a, b], [0, 1])
    with pytest.raises(ValueError, match="range code"):
        th.tree_pair(2, 1, [a, b], [b, b], [0, 1])
    with pytest.raises(ValueError, match="root"):
        th.tree_pair(2, 1, [RootedWord(2, ())], [RootedWord(1, ())], [0])
    with pytest.raises(TypeError):
        th.tree_pair(2, 1, [part("1")], [part("1")], [0])


def test_tree_pair_reads_pairing_entries_as_integers():
    # an entry is read with operator.index: a float or a string is refused by
    # name, where int() would truncate or parse it into a valid pairing
    c = [RootedWord(1, (0,)), RootedWord(1, (1,))]
    for perm, bad in [([1.9, 0.2], "1.9 at position 0"), (["1", "0"], "'1' at position 0"),
                      ([1, 0.0], "0.0 at position 1")]:
        with pytest.raises(ValueError, match=re.escape("bad pairing entry " + bad)):
            th.tree_pair(2, 1, c, c, perm)
    swapped = th.tree_pair(2, 1, c, c, [1, 0])
    assert th.tree_pair(2, 1, c, c, [True, False]) == swapped
    assert th.tree_pair(2, 1, c, c, range(1, -1, -1)) == swapped


def test_tp_literals_roundtrip():
    text = "{a,ba,bb}->{aa,ab,b}:perm=[0,1,2]"
    g = th.parse_tree_pair(text, 2, 1)
    assert th.format_tree_pair(g) == text
    assert th.format_tree_pair(th.tp_identity(2, 1)) == "{1}->{1}:perm=[0]"
    assert (
        th.format_tree_pair(th.tp_identity(2, 2))
        == "{r1:1,r2:1}->{r1:1,r2:1}:perm=[0,1]"
    )
    swap = th.parse_tree_pair("{r1:1,r2:1}->{r1:1,r2:1}:perm=[1,0]", 2, 2)
    assert th.tp_mul(swap, swap) == th.tp_identity(2, 2)
    with pytest.raises(ValueError, match="cannot parse tree pair"):
        th.parse_tree_pair("{a,b}->{a,b}", 2, 1)
    rng = random.Random(41)
    for n, r in PARAMS:
        for _ in range(10):
            g = random_tree_pair(n, r, rng, 3)
            assert th.parse_tree_pair(th.format_tree_pair(g), n, r) == g


def test_cuntz_literals_roundtrip():
    u = celem(["aa.a^-1", "ab.ba^-1", "b.bb^-1"])
    text = "{(1|aa,a|1), (1|ab,ba|1), (1|b,bb|1)}"
    assert th.format_cuntz(u) == text
    assert th.parse_cuntz(text, 2, 1).parts == u.parts
    assert th.format_cuntz(th.cuntz_zero(2, 1)) == "{}"
    assert th.parse_cuntz("{}", 3, 2).parts == frozenset()
    with pytest.raises(ValueError, match="cannot parse"):
        th.parse_cuntz("(1|a,a|1)", 2, 1)
    rng = random.Random(42)
    for n, r in PARAMS:
        for _ in range(10):
            x = random_element(n, r, rng)
            assert th.parse_cuntz(th.format_cuntz(x), n, r).parts == x.parts


def test_unit_treepair_roundtrip_examples():
    # identity <-> {1}
    assert th.tp_from_unit(th.cuntz_one(2, 1)) == th.tp_identity(2, 1)
    assert th.tp_to_unit(th.tp_identity(2, 1)).parts == th.cuntz_one(2, 1).parts
    # swap of the two letters <-> {ba^-1, ab^-1}
    swap_unit = celem(["b.a^-1", "a.b^-1"])
    swap = th.tp_from_unit(swap_unit)
    assert th.format_tree_pair(swap) == "{a,b}->{a,b}:perm=[1,0]"
    assert th.tp_to_unit(swap).parts == swap_unit.parts
    # the three-leaf unit and its codes
    u3 = celem(["aa.a^-1", "ab.ba^-1", "b.bb^-1"])
    g3 = th.tp_from_unit(u3)
    assert th.format_tree_pair(g3) == "{a,ba,bb}->{aa,ab,b}:perm=[0,1,2]"
    assert th.cuntz_eq(th.tp_to_unit(g3), u3)
    with pytest.raises(ValueError, match="not a unit"):
        th.tp_from_unit(celem(["a.a^-1"]))
    with pytest.raises(ValueError, match="not a unit"):
        th.tp_from_unit(th.cuntz_zero(2, 1))
    # parts that are not pairwise compatible, which only an element built
    # by hand can hold, make no unit either; nor does a code that glues on
    # one side only
    clash = th.CuntzElement(2, 1, frozenset([part("a.b^-1"), part("a.a^-1"), part("b.b^-1")]))
    one_sided = celem(["a.a^-1", "b.ba^-1"])
    for x in (clash, one_sided):
        with pytest.raises(ValueError, match="^not a unit$"):
            th.tp_from_unit(x)


def test_unit_treepair_roundtrip_random():
    rng = random.Random(51)
    for n, r in PARAMS:
        for _ in range(10):
            g = random_tree_pair(n, r, rng, 3)
            assert th.tp_from_unit(th.tp_to_unit(g)) == th.tp_reduce(g)
            x = th.tp_to_unit(g)
            assert th.cuntz_eq(th.tp_to_unit(th.tp_from_unit(x)), x)


def test_tp_reduce_cascades_to_identity():
    g = th.parse_tree_pair("{aa,ab,b}->{aa,ab,b}:perm=[0,1,2]", 2, 1)
    assert th.tp_reduce(g) == th.tp_identity(2, 1)


def test_tp_reduce_removes_aligned_expansion():
    rng = random.Random(52)
    for n, r in PARAMS:
        for _ in range(10):
            g = th.tp_reduce(random_tree_pair(n, r, rng, 3))
            p = rng.randrange(len(g.domain))
            d, img = g.domain[p], g.range[g.perm[p]]
            dom = [w for q, w in enumerate(g.domain) if q != p]
            ran = [w for q, w in enumerate(g.range) if q != g.perm[p]]
            pairs = {w: g.range[g.perm[q]]
                     for q, w in enumerate(g.domain) if q != p}
            for k in range(n):
                child = RootedWord(d.root, d.letters + (k,))
                pairs[child] = RootedWord(img.root, img.letters + (k,))
            dom = sorted(pairs)
            blown = th.tree_pair(n, r, dom, [pairs[w] for w in dom],
                                 range(len(dom)))
            assert blown != g
            assert th.tp_reduce(blown) == g
            assert th.tp_eq(blown, g)
            # the unit of a pair is read off its reduced pair
            assert th.tp_to_unit(blown).parts == th.tp_to_unit(g).parts


def test_tp_inv_is_an_involution():
    g3 = th.parse_tree_pair("{a,ba,bb}->{aa,ab,b}:perm=[0,1,2]", 2, 1)
    assert th.format_tree_pair(th.tp_inv(g3)) == "{aa,ab,b}->{a,ba,bb}:perm=[0,1,2]"
    rng = random.Random(53)
    for n, r in PARAMS:
        for _ in range(10):
            g = random_tree_pair(n, r, rng, 3)
            assert th.tp_inv(th.tp_inv(g)) == g


def test_tp_mul_examples():
    swap = th.parse_tree_pair("{a,b}->{a,b}:perm=[1,0]", 2, 1)
    ident = th.tp_identity(2, 1)
    assert th.tp_mul(swap, swap) == ident
    g3 = th.parse_tree_pair("{a,ba,bb}->{aa,ab,b}:perm=[0,1,2]", 2, 1)
    assert th.tp_mul(g3, th.tp_inv(g3)) == ident
    assert th.tp_mul(th.tp_inv(g3), g3) == ident
    # the square expands once more on each side; checked against the action
    sq = th.tp_mul(g3, g3)
    assert th.format_tree_pair(sq) == "{a,ba,bba,bbb}->{aaa,aab,ab,b}:perm=[0,1,2,3]"
    check_action_oracle(g3, g3, sq)
    gi = th.tp_inv(g3)
    sqi = th.tp_mul(gi, gi)
    assert th.format_tree_pair(sqi) == "{aaa,aab,ab,b}->{a,ba,bba,bbb}:perm=[0,1,2,3]"
    check_action_oracle(gi, gi, sqi)
    assert th.tp_mul(sq, sqi) == ident


def test_tp_mul_matches_action_oracle():
    rng = random.Random(54)
    for n, r in PARAMS:
        for _ in range(15):
            g = random_tree_pair(n, r, rng, rng.randrange(1, 4))
            h = random_tree_pair(n, r, rng, rng.randrange(1, 4))
            check_action_oracle(g, h, th.tp_mul(g, h))


def test_group_axioms():
    rng = random.Random(55)
    for n, r in PARAMS:
        ident = th.tp_identity(n, r)
        for _ in range(15):
            g = random_tree_pair(n, r, rng, rng.randrange(1, 4))
            h = random_tree_pair(n, r, rng, rng.randrange(1, 4))
            k = random_tree_pair(n, r, rng, rng.randrange(1, 4))
            assert th.tp_mul(th.tp_mul(g, h), k) == th.tp_mul(g, th.tp_mul(h, k))
            assert th.tp_mul(g, ident) == th.tp_reduce(g)
            assert th.tp_mul(ident, g) == th.tp_reduce(g)
            assert th.tp_mul(g, th.tp_inv(g)) == ident
            assert th.tp_mul(th.tp_inv(g), g) == ident


def test_unit_group_matches_tree_pair_group():
    rng = random.Random(56)
    for n, r in PARAMS:
        for _ in range(10):
            g = random_tree_pair(n, r, rng, rng.randrange(1, 4))
            h = random_tree_pair(n, r, rng, rng.randrange(1, 4))
            xg, xh = th.tp_to_unit(g), th.tp_to_unit(h)
            assert th.tp_from_unit(th.cuntz_mul(xg, xh)) == th.tp_mul(g, h)
            assert th.tp_from_unit(th.cuntz_inv(xg)) == th.tp_reduce(th.tp_inv(g))
            assert th.cuntz_eq(th.tp_to_unit(th.tp_mul(g, h)),
                               th.cuntz_mul(xg, xh))


def test_operations_preserve_rooted_codes():
    # tp_inv, tp_reduce and tp_from_unit check no codes, so this re-proves
    # theirs, also at the 32 and 64 leaves the benchmark draws
    rng = random.Random(57)
    for n, r in PARAMS:
        splits = [3] * 10 + [(32 - r) // (n - 1), (64 - r) // (n - 1)]
        for k in splits:
            g = random_tree_pair(n, r, rng, k)
            h = random_tree_pair(n, r, rng, k)
            u = th.tp_to_unit(g)
            outs = (th.tp_mul(g, h), th.tp_inv(g), th.tp_reduce(g), th.tp_from_unit(u),
                    th.tp_from_unit(th.cuntz_mul(u, th.tp_to_unit(h))))
            for out in outs:
                assert is_rooted_maximal_prefix_code(list(out.domain), n, r)
                assert is_rooted_maximal_prefix_code(list(out.range), n, r)
            domain = [RootedWord(p.j, p.m.x) for p in u.parts]
            range_ = [RootedWord(p.i, p.m.y) for p in u.parts]
            assert is_rooted_maximal_prefix_code(domain, n, r)
            assert is_rooted_maximal_prefix_code(range_, n, r)


def count_scans(monkeypatch):
    """The pairs ext_compatible is asked about from now on, as sets."""
    calls = []
    compatible = pc.ext_compatible

    def counted(a, b):
        calls.append(frozenset((a, b)))
        return compatible(a, b)

    monkeypatch.setattr(pc, "ext_compatible", counted)
    return calls


def pairwise_scan(x):
    return Counter(map(frozenset, itertools.combinations(x.parts, 2)))


def plain(x):
    """x with its parts in a plain frozenset: an element the library did not
    build, which carries no leaf map."""
    return th.CuntzElement(x.n, x.r, frozenset(x.parts))


def test_each_factor_is_scanned_once(monkeypatch, theorem_checks_off):
    # an element the library builds carries the leaf map of its normal form,
    # so no operation scans it; any other argument gets exactly its pairwise
    # scan, and a reduced tree pair is a normal form without one
    calls = count_scans(monkeypatch)
    rng = random.Random(58)
    for n, r in PARAMS:
        for _ in range(5):
            calls.clear()
            xg = th.tp_to_unit(random_tree_pair(n, r, rng, rng.randrange(1, 5)))
            assert calls == []
            y = random_element(n, r, rng)
            assert Counter(calls) == pairwise_scan(y)
            z = th.cuntz_mul(xg, y)
            for op, args in [
                (th.cuntz_mul, (xg, y)),
                (th.cuntz_mul, (z, th.cuntz_inv(z))),
                (th.cuntz_inv, (y,)),
                (th.cuntz_eq, (xg, y)),
                (th.cuntz_eq, (z, th.cuntz_normalize(z))),
                (th.is_unit, (xg,)),
                (th.is_unit, (y,)),
                (th.tp_from_unit, (xg,)),
            ]:
                calls.clear()
                op(*args)
                assert calls == [], op.__name__
                for k, x in enumerate(args):
                    calls.clear()
                    op(*args[:k], plain(x), *args[k + 1:])
                    assert Counter(calls) == pairwise_scan(x), op.__name__


def test_cli_scans_each_literal_once(monkeypatch, capsys, theorem_checks_off):
    # a tree-pair literal has its two codes checked once and no part scan; a
    # Cuntz literal gets one pairwise scan, when it is parsed, and the pair
    # read off a unit is built from its proven leaf map with no code check
    calls = count_scans(monkeypatch)
    codes = []
    is_code = th.is_rooted_maximal_prefix_code

    def counted(code, n, r):
        codes.append(code)
        return is_code(code, n, r)

    monkeypatch.setattr(th, "is_rooted_maximal_prefix_code", counted)
    g3 = "{a,ba,bb}->{aa,ab,b}:perm=[0,1,2]"
    assert cli.main(["thompson", "mul", g3, g3]) == 0
    assert calls == [] and len(codes) == 3 * 2  # two literals and the product
    unit = "{(1|aa,a|1), (1|ab,ba|1), (1|b,bb|1)}"
    scan = pairwise_scan(th.parse_cuntz(unit, 2, 1))
    calls.clear()
    codes.clear()
    assert cli.main(["thompson", "fromunit", unit]) == 0
    assert Counter(calls) == scan and codes == []
    capsys.readouterr()


def test_a_carried_map_changes_no_answer(monkeypatch, capsys):
    # equality, hashing, formatting and the command line see only the parts
    rng = random.Random(60)
    for n, r in PARAMS:
        for _ in range(5):
            for x in (random_element(n, r, rng),
                      th.tp_to_unit(random_tree_pair(n, r, rng, rng.randrange(0, 4)))):
                assert x == plain(x) and plain(x) == x
                assert hash(x) == hash(plain(x))
                assert th.format_cuntz(x) == th.format_cuntz(plain(x))
    g3 = "{a,ba,bb}->{aa,ab,b}:perm=[0,1,2]"
    unit = "{(1|aa,a|1), (1|ab,ba|1), (1|b,bb|1)}"
    argvs = [[sub, "-n", "2", lit, *json] for sub, lit in (("tounit", g3), ("fromunit", unit))
             for json in ([], ["--json"])]

    def outputs():
        return [(cli.main(["thompson", *argv]), capsys.readouterr()) for argv in argvs]

    carried = outputs()
    for name in ("tp_to_unit", "parse_cuntz"):
        build = getattr(th, name)
        monkeypatch.setattr(th, name, lambda *a, build=build: plain(build(*a)))
    assert outputs() == carried


def test_a_lost_map_costs_one_scan(monkeypatch, theorem_checks_off):
    # a deep copy or a pickle of an element gets its parts back as a plain
    # frozenset, so the map is scanned afresh, once; a shallow copy, or
    # _replace with carried parts, takes the map along with the parts
    calls = count_scans(monkeypatch)
    rng = random.Random(61)
    for n, r in PARAMS:
        for _ in range(5):
            x = random_element(n, r, rng)
            z = th.tp_to_unit(random_tree_pair(n, r, rng, rng.randrange(0, 4)))
            want, one = th.cuntz_mul(x, z), th.cuntz_one(n, r)
            for lost in (copy.deepcopy(x), pickle.loads(pickle.dumps(x)),
                         x._replace(parts=copy.copy(x.parts))):
                assert lost == x and type(lost.parts) is frozenset
                calls.clear()
                assert th.cuntz_mul(lost, z) == want
                assert Counter(calls) == pairwise_scan(x)
            calls.clear()
            assert th.cuntz_mul(copy.copy(x), z) == want
            moved = one._replace(parts=x.parts)
            assert th.cuntz_mul(moved, z) == want and th.cuntz_eq(moved, x)
            assert calls == []


def test_each_tree_pair_is_checked_once(monkeypatch, theorem_checks_off):
    # tp_mul checks both codes of its product with tree_pair; an inverse, a
    # reduction and a read-back normal form cannot break a code, so they
    # build their pair from its leaf map with no check and no prefix test;
    # a unit and an equality of units need no pair at all
    calls, compared, seen = [], [], set()
    is_code, compare = th.is_rooted_maximal_prefix_code, wd.prefix_compare

    def counted(code, n, r):
        calls.append(code)
        return is_code(code, n, r)

    def compared_words(x, y):
        compared.append((x, y))
        return compare(x, y)

    rng = random.Random(59)
    for n, r in PARAMS:
        for _ in range(5):
            g = random_tree_pair(n, r, rng, rng.randrange(0, 5))
            h = random_tree_pair(n, r, rng, rng.randrange(0, 5))
            x = th.tp_to_unit(g)
            y = th.cuntz_mul(x, th.tp_to_unit(h))
            monkeypatch.setattr(th, "is_rooted_maximal_prefix_code", counted)
            monkeypatch.setattr(wd, "prefix_compare", compared_words)
            for op, args, count in [
                (th.tp_mul, (g, h), 2),
                (th.tp_inv, (g,), 0),
                (th.tp_reduce, (g,), 0),
                (th.tp_from_unit, (y,), 0),
                (th.tp_to_unit, (g,), 0),
                (th.cuntz_eq, (x, y), 0),
            ]:
                calls.clear()
                compared.clear()
                op(*args)
                assert len(calls) == count, op.__name__
                if compared:
                    seen.add(op.__name__)
            monkeypatch.undo()
    # the counter sees the prefix tests of the one route that checks codes
    assert seen == {"tp_mul"}


class CountedSweeps(dict):
    """A leaf map that counts the sweeps made over it."""

    sweeps = 0

    def items(self):
        self.sweeps += 1
        return super().items()


def caterpillar(k):
    """The code {a, ba, bba, ..., b^(k-1)} at root 1, with a = 0 and b = 1."""
    return [RootedWord(1, (1,) * i + (0,)) for i in range(k - 1)] + [RootedWord(1, (1,) * (k - 1))]


def test_gluing_sweeps_the_leaf_map_once():
    # a caterpillar glues one family per round, k - 1 rounds down to its root;
    # each glued family's new leaf fills its parent family, so one sweep of
    # the map finds every family there is to glue
    root = RootedWord(1, ())
    for k in (2, 3, 64):
        pairs = CountedSweeps((d, d) for d in caterpillar(k))
        assert th._glued(2, pairs) == {root: root}
        assert pairs.sweeps == 1
    code = caterpillar(512)
    g = th.tree_pair(2, 1, code, code, range(512))
    one = th.tp_identity(2, 1)
    assert th.tp_reduce(g) == one
    assert th.tp_eq(g, one)
    assert th.tp_to_unit(g) == th.cuntz_one(2, 1)
