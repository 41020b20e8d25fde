import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

import stonedual
from stonedual import duality as D
from stonedual import finitesgp as F
from stonedual.selftest import relabeled
import tests_support_tables as TS
from tests_support_tables import (
    adjoined_z2,
    b2,
    b2_z2,
    b3,
    boolean_corpus,
    chain,
    clifford_witness,
    cube,
    i2_x_i2,
    i_k,
    meet_corpus,
    no_meet,
    union_of_chains,
)


# ---------------------------------------------------------------------------
# groupoid corpus

def shape(*factors):
    """The groupoid of a shape given as factors (n, name of H in TS.GROUPS)."""
    return D.shape_groupoid([(n, TS.GROUPS[g]) for n, g in factors])


def groupoid_corpus():
    return {
        "pair1": shape((1, "1")),
        "pair2": shape((2, "1")),
        "pair3": shape((3, "1")),
        "disc3": shape((1, "1"), (1, "1"), (1, "1")),
        "z2": shape((1, "Z2")),
        "z3": shape((1, "Z3")),
        "pair2+disc1": shape((2, "1"), (1, "1")),
        "z2+pair2": shape((1, "Z2"), (2, "1")),
        "z2xpair2": shape((2, "Z2")),
    }


# ---------------------------------------------------------------------------
# oracles

def oracle_bisections(G):
    """Local bisections straight from the definition: the setwise products
    A^-1 A and A A^-1 must land inside the objects."""
    objs = set(G.objects)
    out = []
    for bits in range(1 << G.m):
        A = [a for a in range(G.m) if bits >> a & 1]
        left = {G.compose(G.inverse(a), b) for a in A for b in A}
        right = {G.compose(a, G.inverse(b)) for a in A for b in A}
        left.discard(None)
        right.discard(None)
        if left <= objs and right <= objs:
            out.append(frozenset(A))
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def oracle_components(G):
    """Connected components by breadth-first search through shared objects."""
    seen = set()
    comps = []
    for start in range(G.m):
        if start in seen:
            continue
        block = {start}
        frontier = [start]
        while frontier:
            a = frontier.pop()
            for b in range(G.m):
                if b in block:
                    continue
                ends_a = {G.dom[a], G.ran[a]}
                ends_b = {G.dom[b], G.ran[b]}
                if ends_a & ends_b:
                    block.add(b)
                    frontier.append(b)
        seen |= block
        comps.append(sorted(block))
    return sorted(comps)


# ---------------------------------------------------------------------------
# FiniteGroupoid construction and validation

def test_groupoid_builders():
    for k in (1, 2, 3, 4):
        G = shape((k, "1"))
        assert G.m == k * k and len(G.objects) == k
        assert TS.is_principal(G)
        assert len(TS.components(G)) == 1
        # the pair groupoid: arrow i*k + j is (i,j), from object j to object i
        for i, j, l in itertools.product(range(k), repeat=3):
            a = i * k + j
            assert (G.dom[a], G.ran[a], G.name(a)) == (j * k + j, i * k + i, "(%d,%d)" % (i, j))
            assert G.compose(a, j * k + l) == i * k + l
        H = shape(*[(1, "1")] * k)
        assert H.m == k and H.objects == list(range(k))
        assert TS.is_principal(H) and len(TS.components(H)) == k
    G = shape((1, "Z2"))
    assert G.m == 2 and len(G.objects) == 1
    assert not TS.is_principal(G)
    mixed = shape((1, "Z2"), (2, "1"))
    assert mixed.m == 6 and len(TS.components(mixed)) == 2
    assert not TS.is_principal(mixed)
    # objects are numbered across the shape, and a group element is named
    # only when the local group is not trivial
    names = ["(0,0,0)", "(0,1,0)", "(1,1)", "(1,2)", "(2,1)", "(2,2)"]
    assert [mixed.name(a) for a in range(6)] == names
    bundle = shape((2, "Z2"))
    assert bundle.m == 8 and len(TS.components(bundle)) == 1
    assert not TS.is_principal(bundle)
    assert bundle.name(3) == "(0,1,1)" and bundle.compose(3, 7) == 2  # g * g = 1


@pytest.mark.parametrize("factors, error, message", [
    ([], ValueError, "at least one factor"),
    ([(2, [[0]]), (0, [[0]])], ValueError, "needs an object"),
    ([(1, [[0, 1], [1]])], ValueError, "non-empty square table"),
    ([(1, [])], ValueError, "non-empty square table"),
    ([(1, [[0, 1], [1, 1]])], F.TableError, "arrow 1 has 0 inverses"),  # not a group
    ([(2, [[1, 0], [0, 1]])], F.TableError, "identity law"),  # the identity is 1
], ids=["empty", "no-objects", "ragged", "empty-table", "not-a-group", "identity-not-at-0"])
def test_shape_groupoid_refusals(factors, error, message):
    with pytest.raises(error, match=message):
        D.shape_groupoid(factors)


def test_groupoid_inverse_laws():
    for name, G in groupoid_corpus().items():
        for a in range(G.m):
            b = G.inverse(a)
            assert G.compose(a, b) == G.ran[a], name
            assert G.compose(b, a) == G.dom[a], name
            assert G.inverse(b) == a, name


def test_groupoid_validation_rejections():
    good = shape((2, "1"))

    def comp_dict(G):
        return {
            (a, b): int(G.C[a, b])
            for a in range(G.m)
            for b in range(G.m)
            if G.C[a, b] >= 0
        }

    comp = comp_dict(good)
    del comp[(1, 3)]
    with pytest.raises(F.TableError, match="missing composite"):
        D.FiniteGroupoid(good.objects, good.dom, good.ran, comp)

    comp = comp_dict(good)
    comp[(1, 1)] = 1  # d(1) != r(1), must stay undefined
    with pytest.raises(F.TableError, match="should be undefined"):
        D.FiniteGroupoid(good.objects, good.dom, good.ran, comp)

    comp = comp_dict(good)
    comp[(1, 3)] = 2  # right endpoints are (d(3), r(1)), arrow 2 has others
    with pytest.raises(F.TableError, match="wrong endpoints"):
        D.FiniteGroupoid(good.objects, good.dom, good.ran, comp)

    with pytest.raises(F.TableError, match="not its own source"):
        D.FiniteGroupoid([0], [1, 1], [1, 1], {})

    # identity laws: 0 acts as identity on the right only
    comp = {(0, 0): 0, (1, 0): 1, (0, 1): 0, (1, 1): 0}
    with pytest.raises(F.TableError, match="identity law"):
        D.FiniteGroupoid([0], [0, 0], [0, 0], comp)

    # one object, three loops, identity laws hold but associativity fails
    comp = {
        (0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2,
        (1, 1): 2, (1, 2): 0, (2, 1): 0, (2, 2): 2,
    }
    with pytest.raises(F.TableError, match="associativity fails"):
        D.FiniteGroupoid([0], [0] * 3, [0] * 3, comp)

    # a semilattice loop passes associativity but has no inverse
    comp = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    with pytest.raises(F.TableError, match="has 0 inverses"):
        D.FiniteGroupoid([0], [0, 0], [0, 0], comp)


def test_components_oracle():
    for name, G in groupoid_corpus().items():
        assert TS.components(G) == oracle_components(G), name


# ---------------------------------------------------------------------------
# local bisections

def test_local_bisections_against_definition():
    for name, G in groupoid_corpus().items():
        if G.m > 12:
            continue
        assert D.local_bisections(G) == oracle_bisections(G), name


def test_bisection_counts():
    # |Bi(k x k)| = sum_i C(k,i)^2 i! = |I(k)|: 2, 7, 34, 209
    for k, count in [(1, 2), (2, 7), (3, 34), (4, 209)]:
        assert len(D.local_bisections(shape((k, "1")))) == count
    # discrete groupoid: bisections = subsets of the objects
    for k in (1, 2, 3):
        assert len(D.local_bisections(shape(*[(1, "1")] * k))) == 2 ** k
    # one-object group: the empty set and each singleton
    assert len(D.local_bisections(shape((1, "Z2")))) == 3
    assert len(D.local_bisections(shape((1, "Z3")))) == 4
    # two objects, Z/2 local groups: 1 + 4*2 singles + 2*4 full selections
    assert len(D.local_bisections(shape((2, "Z2")))) == 17
    # disjoint union multiplies the counts: 7 * 2
    assert len(D.local_bisections(shape((2, "1"), (1, "1")))) == 14


def test_local_bisections_stop_at_the_size_cap():
    # 2^1100 bisections, refused by their count before any is listed
    with pytest.raises(F.SizeLimitError):
        D.local_bisections(shape(*[(1, "1")] * 1100))


def bisection_count(G):
    return F._bisection_count(*F._components(G.dom, G.ran), np.isin(np.arange(G.m), G.objects))


def test_bisection_count_numbers_the_local_bisections():
    # Brandt: a component with n objects and local groups of order h has
    # sum_k C(n, k)^2 k! h^k local bisections, and components multiply
    for name, G in groupoid_corpus().items():
        assert bisection_count(G) == len(D.local_bisections(G)) == len(oracle_bisections(G)), name
    assert bisection_count(shape(*[(1, "1")] * 1100)) == 2**1100
    assert bisection_count(shape((4, "1"))) == 209  # the rook monoid I(4)


def test_bisection_semigroup_examples():
    B = D.bisection_semigroup(shape((2, "1")))
    assert B.m == 7
    assert D.bisection_semigroup(shape((1, "1"))).m == 2
    B4 = D.bisection_semigroup(shape((1, "1"), (1, "1")))
    assert B4.m == 4
    assert all(B4.is_idem[s] for s in range(4))


def test_bisection_semigroup_meet_join_are_intersection_union():
    for name in ("pair2", "disc3", "z2", "z2xpair2", "pair2+disc1"):
        G = groupoid_corpus()[name]
        sets = D.local_bisections(G)
        index = {A: i for i, A in enumerate(sets)}
        B = D.bisection_semigroup(G)
        for i, A1 in enumerate(sets):
            for j, A2 in enumerate(sets):
                assert B.meet(i, j) == index[A1 & A2], name
                u = A1 | A2
                if u in index:
                    assert B.join(i, j) == index[u], name
                else:
                    assert B.join(i, j) is None, name


def test_bisection_names_track_arrow_sets():
    G = shape((2, "1"))
    B = D.bisection_semigroup(G)
    assert B.name(B.zero) == "{}"
    ident = B.find_identity()
    assert B.name(ident) == "{(0,0),(1,1)}"


# ---------------------------------------------------------------------------
# ultrafilter groupoids of tables

def test_ultrafilter_groupoid_examples():
    G = D.ultrafilter_groupoid(i_k(2))
    assert len(G.objects) == 2 and G.m == 4
    for d in G.objects:
        for r in G.objects:
            assert sum(1 for a in range(G.m) if G.dom[a] == d and G.ran[a] == r) == 1
    assert {G.name(a) for a in range(G.m)} == {"[0>0]", "[0>1]", "[1>0]", "[1>1]"}

    # the Boolean algebra 2^2 gives the discrete groupoid on its two atoms
    G = D.ultrafilter_groupoid(cube(2))
    assert G.m == 2 and len(G.objects) == 2
    assert all(G.compose(a, b) is None for a in range(2) for b in range(2) if a != b)

    G = D.ultrafilter_groupoid(i_k(3))
    assert len(G.objects) == 3 and G.m == 9


def test_ultrafilter_groupoid_gate():
    with pytest.raises(F.TableError, match="meet"):
        D.ultrafilter_groupoid(no_meet())
    with pytest.raises(F.TableError, match="Boolean"):
        D.ultrafilter_groupoid(chain(3))
    with pytest.raises(F.TableError, match="Boolean"):
        D.ultrafilter_groupoid(b2())


def test_ultrafilter_groupoid_arrows_are_zero_minimals():
    for name, S in boolean_corpus().items():
        G = D.ultrafilter_groupoid(S)
        elems = S.zero_minimal()
        assert G.m == len(elems), name
        assert [G.name(a) for a in range(G.m)] == [S.name(s) for s in elems], name
        objs = [elems[e] for e in G.objects]
        assert objs == [s for s in elems if S.is_idem[s]], name


def test_ultrafilter_groupoid_of_a_group_takes_quadratic_memory(theorem_checks_off):
    # Z_400^0 is one object with 400 arrows; its groupoid is read off the
    # table in a few a x a arrays, with no composite dict and no axiom check
    S = TS.cyclic_with_zero(400)
    S.phi(), S.support_matrix(), S.minimal_components()
    tracemalloc.start()
    try:
        G = D.ultrafilter_groupoid(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (G.m, len(G.objects)) == (400, 1)
    assert peak < 48 * G.m**2


def test_groupoid_hook_rebuilds_through_the_validating_constructor():
    import conftest

    S = i_k(2)
    G, elems = D._groupoid_of_minimals(S)
    conftest.check_groupoid_of_minimals(S, (G, elems))
    G.inv = G.inv[::-1]
    with pytest.raises(AssertionError, match="inverses"):
        conftest.check_groupoid_of_minimals(S, (G, elems))
    G.C = G.C.T.copy()
    with pytest.raises(AssertionError, match="composites"):
        conftest.check_groupoid_of_minimals(S, (G, elems))


# ---------------------------------------------------------------------------
# the round trip S = B(G(S))

def test_roundtrip_boolean_corpus():
    corpus = dict(boolean_corpus())
    corpus["I(1)xI(2)"] = TS.direct_product(i_k(1), i_k(2))
    for name, S in corpus.items():
        ok, phi = D.duality_roundtrip(S)
        assert ok, name
        G, _ = D._groupoid_of_minimals(S)
        B = D.bisection_semigroup(G)
        assert B.m == S.m, name
        # independent sample of the homomorphism property
        rng = random.Random(7)
        for _ in range(100):
            a = rng.randrange(S.m)
            b = rng.randrange(S.m)
            assert B.mul(phi[a], phi[b]) == phi[S.mul(a, b)], name
        # idempotent parts are order isomorphic
        for e in S.E:
            for f in S.E:
                assert S.leq(e, f) == B.leq(phi[e], phi[f]), name


def test_roundtrip_explicit_for_i2():
    S = i_k(2)
    ok, phi = D.duality_roundtrip(S)
    assert ok
    elems = S.zero_minimal()
    pos = {s: i for i, s in enumerate(elems)}
    sets = D.local_bisections(D._groupoid_of_minimals(S)[0])
    for s in range(S.m):
        assert sets[phi[s]] == frozenset(pos[t] for t in S.minset(s))


def test_roundtrip_failures_name_witnesses():
    # chains above length 2 glue their idempotents into one ultrafilter
    ok, w = D.duality_roundtrip(chain(3))
    assert not ok and w == "V_c1 = V_c2 but the elements differ"
    ok, w = D.duality_roundtrip(chain(4))
    assert not ok and w == "V_c1 = V_c2 but the elements differ"
    ok, w = D.duality_roundtrip(clifford_witness())
    assert not ok and w == "V_e = V_1 but the elements differ"
    ok, w = D.duality_roundtrip(no_meet())
    assert not ok and w == "V_q = V_g but the elements differ"
    # B variants miss the joins of orthogonal pairs
    ok, w = D.duality_roundtrip(b2())
    assert not ok and w == "no element has V_s = {(1|1|1),(2|1|2)}"
    ok, w = D.duality_roundtrip(b3())
    assert not ok and w.startswith("no element has V_s")
    ok, w = D.duality_roundtrip(b2_z2())
    assert not ok and w.startswith("no element has V_s")
    ok, w = D.duality_roundtrip(union_of_chains())
    assert not ok and w == "no element has V_s = {L:c1,R:c1}"


def test_roundtrip_is_relabeling_invariant():
    rng = random.Random(11)
    for name, S in boolean_corpus().items():
        if S.m > 40:
            continue
        for _ in range(3):
            ok, _ = D.duality_roundtrip(relabeled(S, rng))
            assert ok, name


# ---------------------------------------------------------------------------
# the other round trip G = G(B(G))

def test_groupoid_roundtrip_via_singletons():
    for name, G in groupoid_corpus().items():
        B = D.bisection_semigroup(G)
        sets = D.local_bisections(G)
        G2 = D.ultrafilter_groupoid(B)
        atoms = B.zero_minimal()
        assert len(atoms) == G.m, name
        # arrow g of G corresponds to the singleton bisection {g}
        to2 = {}
        for a2, b_elem in enumerate(atoms):
            members = sets[b_elem]
            assert len(members) == 1, name
            (g,) = members
            to2[g] = a2
        assert sorted(to2) == list(range(G.m)), name
        assert sorted(to2[e] for e in G.objects) == G2.objects, name
        for a in range(G.m):
            assert G2.dom[to2[a]] == to2[G.dom[a]], name
            assert G2.ran[to2[a]] == to2[G.ran[a]], name
            for b in range(G.m):
                c = G.compose(a, b)
                c2 = G2.compose(to2[a], to2[b])
                assert (c is None) == (c2 is None), name
                if c is not None:
                    assert c2 == to2[c], name


# ---------------------------------------------------------------------------
# every finite Boolean inverse monoid up to a size, from its shape

def shapes(bound):
    """Every shape, a multiset of factors (n, name of H in TS.GROUPS), whose
    bisection semigroup, the product of the |R_n(H)|, has at most bound
    elements; and the number of factor types that can take part."""
    sizes = {(n, g): F._brandt(n, len(H)) for n in range(1, bound) for g, H in TS.GROUPS.items()}
    types = sorted(f for f, size in sizes.items() if size <= bound)
    found = []

    def grow(factors, first, size):
        for k in range(first, len(types)):
            if size * sizes[types[k]] <= bound:
                found.append(factors + [types[k]])
                grow(found[-1], k, size * sizes[types[k]])

    grow([], 0, 1)
    return found, len(types)


def test_every_shape_up_to_a_hundred_elements():
    # by Brandt's theorem and the finite duality, a finite Boolean inverse
    # monoid is the product of its factors' R_n(H), the local bisections of
    # n x H: I(n) exactly when it has one factor and H is trivial,
    # fundamental exactly when every H is, and with one tightly closed ideal
    # per union of factors
    found, types = shapes(100)
    assert (len(found), types) == (185, 17)
    for factors in found:
        B = D.bisection_semigroup(shape(*factors))
        assert B.m == math.prod(F._brandt(n, len(TS.GROUPS[g])) for n, g in factors), factors
        assert D.duality_roundtrip(B)[0], factors
        trivial = all(g == "1" for _, g in factors)
        if trivial and len(factors) == 1:
            assert D.classify_symmetric(B)[0] == factors[0][0], factors
        else:
            reason = "not 0-simplifying" if trivial else "not fundamental"
            assert D.classify_symmetric(B) == (None, reason), factors
        assert F._fundamental(B) == trivial, factors
        assert F.is_zero_simplifying(B) == (len(factors) == 1), factors
        assert len(F.tightly_closed_ideals(B)) == 2 ** len(factors), factors


# ---------------------------------------------------------------------------
# tightly closed ideals vs invariant subsets

def test_ideal_correspondence_examples():
    pairs = D.ideal_correspondence(i_k(2))
    assert len(pairs) == 2
    S = i_k(2)
    assert pairs[0] == (frozenset({S.zero}), frozenset())
    assert pairs[1] == (frozenset(range(S.m)), frozenset(S.zero_minimal()))

    # I(2) x I(2): one component per factor, so 2^2 ideals
    pairs = D.ideal_correspondence(i2_x_i2())
    assert sorted(len(t) for t, _ in pairs) == [1, 7, 7, 49]

    # trivial table {0, e}
    assert len(D.ideal_correspondence(chain(2))) == 2

    # three atoms, all idempotent: the ideal lattice is the 8-element cube
    pairs = D.ideal_correspondence(cube(3))
    assert sorted(len(t) for t, _ in pairs) == [1, 2, 2, 2, 4, 4, 4, 8]

    with pytest.raises(F.TableError, match="Boolean"):
        D.ideal_correspondence(b2())


def test_ideal_correspondence_matches_zero_simplifying():
    for name, S in boolean_corpus().items():
        pairs = D.ideal_correspondence(S)
        assert (len(pairs) == 2) == F.is_zero_simplifying(S), name


# ---------------------------------------------------------------------------
# the classifier

def test_classify_symmetric_positive():
    for k in (1, 2, 3, 4):
        S = F.symmetric_inverse_monoid(k)
        got, phi = D.classify_symmetric(S)
        assert got == k
        I = F.symmetric_inverse_monoid(k)
        assert sorted(phi) == list(range(I.m))
        rng = random.Random(3)
        for _ in range(200):
            a = rng.randrange(S.m)
            b = rng.randrange(S.m)
            assert I.mul(phi[a], phi[b]) == phi[S.mul(a, b)]


def test_classify_symmetric_on_relabelings():
    rng = random.Random(5)
    for k in (2, 3):
        R = relabeled(F.symmetric_inverse_monoid(k), rng)
        # dropping the identity leaves classify to find it by a scan
        S = F.MulTable(R.T, R.zero, None, R.names)
        got, phi = D.classify_symmetric(S)
        assert got == k
        I = F.symmetric_inverse_monoid(k)
        arr = np.asarray(phi)
        assert (arr[S.T] == I.T[arr[:, None], arr[None, :]]).all()


def test_classify_symmetric_reasons():
    expected = {
        "I(1)": 1,
        "I(2)": 2,
        "chain2": 1,  # {0, e} is I(1) in disguise
        "chain3": "not Boolean",
        "chain4": "not Boolean",
        "cube2": "not 0-simplifying",
        "cube3": "not 0-simplifying",
        "diamond": "not 0-simplifying",
        "adjoined_z2": "not fundamental",
        "clifford_witness": "not Boolean",
        "B2": "not a monoid",
        "B3": "not a monoid",
        "B2(Z2)": "not a monoid",
        "union_of_chains": "not a monoid",
        "I(1)xI(2)": "not 0-simplifying",
    }
    for name, S in meet_corpus().items():
        got, info = D.classify_symmetric(S)
        if isinstance(expected[name], int):
            assert got == expected[name], name
        else:
            assert got is None and info == expected[name], name
    got, info = D.classify_symmetric(no_meet())
    assert got is None and info == "not a meet semigroup"
    got, info = D.classify_symmetric(i2_x_i2())
    assert got is None and info == "not 0-simplifying"
    got, info = D.classify_symmetric(F.MulTable([[0]], 0))
    assert got is None and info == "zero monoid (0 = 1)"


# ---------------------------------------------------------------------------
# the principality criterion

def test_principal_criterion_examples():
    assert TS.principal_criterion(i_k(2))
    assert TS.principal_criterion(chain(2))
    assert not TS.principal_criterion(adjoined_z2())


def test_principal_criterion_triangle():
    # criterion = fundamental = trivial local groups, on every Boolean table
    for name, S in boolean_corpus().items():
        crit = TS.principal_criterion(S)
        assert crit == F._fundamental(S), name
        G = D.ultrafilter_groupoid(S)
        loops_trivial = all(
            G.dom[a] != G.ran[a] or a in set(G.objects) for a in range(G.m)
        )
        assert crit == loops_trivial, name


def test_principal_criterion_gate():
    with pytest.raises(F.TableError, match="meet"):
        TS.principal_criterion(no_meet())
    with pytest.raises(F.TableError, match="Boolean"):
        TS.principal_criterion(b2_z2())


# ---------------------------------------------------------------------------
# dump format

def test_groupoid_dump_roundtrip():
    for name, G in groupoid_corpus().items():
        H = D.FiniteGroupoid.from_text(G.to_text())
        assert H.m == G.m, name
        assert H.objects == G.objects, name
        assert H.dom == G.dom and H.ran == G.ran, name
        assert (H.C == G.C).all(), name
        assert H.inv == G.inv, name


def test_groupoid_dump_shape():
    text = D.ultrafilter_groupoid(i_k(2)).to_text()
    lines = text.strip().splitlines()
    assert sum(1 for l in lines if l.startswith("object ")) == 2
    assert sum(1 for l in lines if l.startswith("arrow ")) == 2
    composes = [l for l in lines if l.startswith("compose ")]
    # composable pairs of a 2x2 pair groupoid: 2 choices at each junction
    assert len(composes) == 8
    for l in composes:
        parts = l.split()
        assert len(parts) == 4 and all(p.isdigit() for p in parts[1:])


def test_groupoid_dump_is_joined_a_row_at_a_time(theorem_checks_off):
    # Z_300^0's groupoid has 90000 composites; the text is joined from one
    # string per row of them, not from a list of every line
    G = D.ultrafilter_groupoid(TS.cyclic_with_zero(300))
    tracemalloc.start()
    try:
        text = G.to_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\ncompose ") == 300 * 300
    assert peak < 4 * len(text)


def test_groupoid_dump_accepts_comments_and_rejects_junk():
    text = "# a pair of isolated points\nobject 0\n\nobject 1\ncompose 0 0 0\ncompose 1 1 1\n"
    G = D.FiniteGroupoid.from_text(text)
    assert G.m == 2 and G.objects == [0, 1]
    with pytest.raises(F.TableError, match="cannot parse"):
        D.FiniteGroupoid.from_text("object zero\n")
    with pytest.raises(F.TableError, match="duplicate arrow"):
        D.FiniteGroupoid.from_text(
            "object 0\narrow 1 0 0\narrow 1 0 0\n"
        )
    with pytest.raises(F.TableError, match="cover 0"):
        D.FiniteGroupoid.from_text("object 3\n")
    with pytest.raises(F.TableError, match="missing composite"):
        D.FiniteGroupoid.from_text("object 0\narrow 1 0 0\ncompose 0 0 0\n")
    for text, message in (
        ("object 0\ncompose 0 5 0\n", "line 2: arrow 5 is not in 0..0"),
        ("object 0\ncompose 0 0 99999999999\n", "line 2: arrow 99999999999 is not"),
        ("object 0\ncompose 0 0 0\ncompose -1 -1 1\n", "line 3: arrow -1 is not"),
        ("object 0\narrow 1 0 0\nobject 1\n", "line 3: duplicate arrow 1"),
        ("object 0\ncompose 0 0 0\ncompose 0 0 0\n", "line 3: duplicate composite"),
    ):
        with pytest.raises(F.TableError, match=message):
            D.FiniteGroupoid.from_text(text)
    with pytest.raises(F.TableError, match="outside 0..0"):
        D.FiniteGroupoid([0], [0], [0], {(0, 5): 0})


def test_sliced_reader_reads_groupoids_alike(monkeypatch):
    # the dump reader goes through the shared sliced line reader: every
    # slice size gives the same groupoid, and the same numbered errors, as
    # one slice of the whole text
    dump = D.ultrafilter_groupoid(i_k(2)).to_text()
    text = "# I(2)\r\n\x0c" + dump.replace("\n", " # row\r\n\r\n")
    texts = [text, text.replace("compose 1 1 1", "compose 1 1 x", 1),
             text.replace("compose 1 1 1", "compose 1 1 9", 1)]

    def outcome(t):
        try:
            G = D.FiniteGroupoid.from_text(t)
        except F.TableError as exc:
            return str(exc)
        return G.objects, G.dom, G.ran, G.C.tolist()

    whole = [outcome(t) for t in texts]
    H = D.FiniteGroupoid.from_text(dump)
    assert whole[0] == (H.objects, H.dom, H.ran, H.C.tolist())
    assert whole[1:] == ["line 15: cannot parse 'compose 1 1 x # row'",
                         "line 15: arrow 9 is not in 0..3"]
    for size in (1, 2, 5, 64):
        monkeypatch.setattr(stonedual, "SLICE", size)
        assert [outcome(t) for t in texts] == whole
