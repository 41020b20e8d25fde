import itertools
import random
import tracemalloc

import pytest

from stonedual import duality as D
from stonedual import filtercomp as FC
from stonedual import finitesgp as F
from stonedual.selftest import relabeled
import tests_support_tables as TS
from tests_support_tables import (
    adjoined_z2,
    b2,
    b3,
    chain,
    clifford_witness,
    cube,
    diamond,
    i2_x_i2,
    i_k,
    meet_corpus,
    no_meet,
    union_of_chains,
)


# ---------------------------------------------------------------------------
# ultrafilters and principal filters

def test_ultrafilter_examples():
    E, _ = F.idempotent_subtable(i_k(2))
    assert {E.name(f.generator) for f in FC.ultrafilters(E)} == {"[0>0]", "[1>1]"}
    assert [f.generator for f in FC.ultrafilters(chain(2))] == [1]
    I2 = i_k(2)
    assert {I2.name(f.generator) for f in FC.ultrafilters(I2)} == {
        "[0>0]", "[0>1]", "[1>0]", "[1>1]",
    }


def test_ultrafilters_are_inclusion_maximal_filters():
    # oracle: compare against maximality of the up-sets themselves
    for name, S in meet_corpus().items():
        ups = {g: frozenset(S.above(g)) for g in S.nonzero()}
        maximal = {
            g
            for g, up in ups.items()
            if not any(h != g and up < vp for h, vp in ups.items())
        }
        assert {f.generator for f in FC.ultrafilters(S)} == maximal, name


def test_ultrafilter_meets_characterization():
    # g^ is maximal iff everything that meets all of g^ already lies in g^
    for name in ("I(2)", "chain3", "cube3", "B2", "clifford_witness"):
        S = meet_corpus()[name]
        ultra = {f.generator for f in FC.ultrafilters(S)}
        for g in S.nonzero():
            absorbing = all(
                S.leq(g, b)
                for b in S.nonzero()
                if all(S.meet(b, c) != S.zero for c in S.above(g))
            )
            assert (g in ultra) == absorbing, name


def test_filter_elements():
    c3 = chain(3)
    assert TS.filter_elements(c3, FC.PrincipalFilter(1)) == {1, 2}
    assert TS.filter_elements(c3, 2) == {2}
    with pytest.raises(F.TableError):
        TS.filter_elements(c3, 0)


# ---------------------------------------------------------------------------
# tight filters

def test_tight_examples():
    assert FC.is_tight_filter(chain(2), 1) is True
    c3 = chain(3)
    assert FC.is_tight_filter(c3, 1) is True
    assert FC.is_tight_filter(c3, 2) is False  # {c1} covers c2 and misses c2^
    d = diamond()
    assert FC.is_tight_filter(d, 3) is False  # {a, b} covers the top
    assert FC.is_tight_filter(d, 1) and FC.is_tight_filter(d, 2)
    with pytest.raises(F.TableError):
        FC.is_tight_filter(d, 0)


def oracle_tight(S, g):
    """Tightness by enumerating every finite cover of every member."""
    for a in S.above(g):
        xs = [x for x in S.below(a) if x != S.zero]
        for r in range(len(xs) + 1):
            for C in itertools.combinations(xs, r):
                if TS.is_cover(S, a, C) and not any(S.leq(g, c) for c in C):
                    return False
    return True


def test_tight_against_all_covers_oracle():
    for name in (
        "I(2)", "chain3", "chain4", "cube2", "cube3", "diamond",
        "adjoined_z2", "clifford_witness", "B2", "union_of_chains",
    ):
        S = meet_corpus()[name]
        for g in S.nonzero():
            assert FC.is_tight_filter(S, g) == oracle_tight(S, g), (name, g)


def test_tight_equals_ultra_on_finite_tables():
    # the finite-scale degeneracy: the nonzero strict lower set of any
    # non-minimal element is already a cover, so tight forces 0-minimal
    for name, S in meet_corpus().items():
        tight = {g for g in S.nonzero() if FC.is_tight_filter(S, g)}
        assert tight == {f.generator for f in FC.ultrafilters(S)}, name


def test_tightness_transfers_along_domain_and_idempotents():
    # tightness of g^, d(g)^, and the idempotent part agree
    for name, S in meet_corpus().items():
        E, emb = F.idempotent_subtable(S)
        back = {emb[i]: i for i in range(E.m)}
        for g in S.nonzero():
            t = FC.is_tight_filter(S, g)
            assert t == FC.is_tight_filter(S, int(S.dom[g])), name
            if S.is_idem[g]:
                assert t == FC.is_tight_filter(E, back[g]), name
        tu_s = {g for g in S.nonzero() if FC.is_tight_filter(S, g)} == {
            f.generator for f in FC.ultrafilters(S)
        }
        tu_e = {e for e in E.nonzero() if FC.is_tight_filter(E, e)} == {
            f.generator for f in FC.ultrafilters(E)
        }
        assert tu_s == tu_e, name


def test_idempotent_filter_correspondence():
    # idempotent ultrafilters of S match ultrafilters of E(S), and the
    # idempotent part of an idempotent principal filter is the E(S) filter
    for name, S in meet_corpus().items():
        E, emb = F.idempotent_subtable(S)
        s_side = {f.generator for f in FC.ultrafilters(S) if S.is_idem[f.generator]}
        e_side = {emb[f.generator] for f in FC.ultrafilters(E)}
        assert s_side == e_side, name
        for e in E.nonzero():
            se = emb[e]
            assert {x for x in S.above(se) if S.is_idem[x]} == {
                emb[y] for y in E.above(e)
            }, name


# ---------------------------------------------------------------------------
# the Lenz congruence

def test_lenz_identity_on_separative_tables():
    for name in ("I(1)", "I(2)", "B2", "B3", "cube2", "cube3", "adjoined_z2"):
        S = meet_corpus()[name]
        Q, lam = TS.lenz_congruence(S)
        assert Q.m == S.m, name
        assert lam == list(range(S.m)), name


def test_lenz_collapses_witness():
    # e <= g with g^2 = 1 forces g, 1, and e into one class
    Q, lam = TS.lenz_congruence(clifford_witness())
    assert Q.m == 2
    assert lam == [0, 1, 1, 1]
    assert [Q.name(i) for i in range(2)] == ["0", "e"]


def test_lenz_collapses_chains():
    Q, lam = TS.lenz_congruence(chain(3))
    assert Q.m == 2 and lam == [0, 1, 1]
    Q, lam = TS.lenz_congruence(chain(4))
    assert Q.m == 2 and lam == [0, 1, 1, 1]
    # two orthogonal atoms are separative already
    Q, lam = TS.lenz_congruence(union_of_chains())
    assert Q.m == 3 and lam == [0, 1, 2]


def test_lenz_zero_restricted():
    for name, S in meet_corpus().items():
        Q, lam = TS.lenz_congruence(S)
        assert lam[S.zero] == Q.zero, name
        assert [s for s in range(S.m) if lam[s] == Q.zero] == [S.zero], name


def test_lenz_on_i5_allocates_under_three_tables(theorem_checks_off):
    # beside the small support matrix, Q's table is one int32 gather of the
    # class array: an allocation count, so it repeats exactly
    S = i_k(5)
    F._meet_semigroup(S)  # phi is S's own, filled on first use
    tracemalloc.start()
    try:
        Q, lam = TS.lenz_congruence(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Q.m == S.m and lam == list(range(S.m))
    assert Q.T.dtype == S.T.dtype and (Q.T == S.T).all()
    assert peak <= 3 * S.T.nbytes


def test_lenz_requires_meets():
    with pytest.raises(F.TableError):
        TS.lenz_congruence(no_meet())


def test_arrow_iff_lambda_leq():
    # a -> {b} exactly when the classes are ordered
    for name in ("I(2)", "chain4", "clifford_witness", "B2(Z2)", "union_of_chains"):
        S = meet_corpus()[name]
        Q, lam = TS.lenz_congruence(S)
        for a in S.nonzero():
            for b in range(S.m):
                assert TS.arrow_enum(S, a, [b]) == Q.leq(lam[a], lam[b]), (name, a, b)


# ---------------------------------------------------------------------------
# the semigroup of compatible order ideals (the reference route to the
# completion, kept in tests_support_tables)

def test_fc_chain2():
    Ftab, ideals, iota = TS.fc_semigroup(chain(2))
    assert Ftab.m == 2
    assert [ci.generators for ci in ideals] == [(), (1,)]
    assert iota == [0, 1]


def test_fc_sizes():
    assert TS.fc_semigroup(i_k(2))[0].m == 9
    # downsets of the 7 nonzero elements of the 3-cube: Dedekind count 20
    # for all downsets of the cube, minus the one forced to contain the
    # empty set, leaves 19
    assert TS.fc_semigroup(cube(3))[0].m == 19
    assert TS.fc_semigroup(b2())[0].m == 7


def test_fc_orthogonal_pair_is_an_ideal():
    Ftab, ideals, iota = TS.fc_semigroup(i_k(2))
    I2 = i_k(2)
    pos = {I2.name(i): i for i in range(I2.m)}
    pair = tuple(sorted((pos["[0>0]"], pos["[1>1]"])))
    assert TS.CompatibleIdeal(pair) in ideals


def test_fc_singletons_multiply_like_s():
    for name in ("I(2)", "B2", "clifford_witness"):
        S = meet_corpus()[name]
        Ftab, ideals, iota = TS.fc_semigroup(S)
        for a in range(S.m):
            for b in range(S.m):
                assert Ftab.mul(iota[a], iota[b]) == iota[S.mul(a, b)], name


def test_fc_order_is_inclusion():
    for name in ("I(2)", "cube3", "B2", "union_of_chains"):
        S = meet_corpus()[name]
        Ftab, ideals, iota = TS.fc_semigroup(S)
        mem = [TS.ideal_members(S, ci) for ci in ideals]
        for i in range(Ftab.m):
            for j in range(Ftab.m):
                assert Ftab.leq(i, j) == (mem[i] <= mem[j]), name


def test_fc_product_matches_setwise_product():
    rng = random.Random(3)
    for name in ("I(2)", "B2", "union_of_chains", "cube3", "B2(Z2)"):
        S = meet_corpus()[name]
        Ftab, ideals, iota = TS.fc_semigroup(S)
        mem = [TS.ideal_members(S, ci) for ci in ideals]
        idx = {m: i for i, m in enumerate(mem)}
        for _ in range(50):
            i, j = rng.randrange(Ftab.m), rng.randrange(Ftab.m)
            closed = set()
            for a in mem[i]:
                for b in mem[j]:
                    p = S.mul(a, b)
                    if p != S.zero:
                        closed.update(x for x in S.below(p) if x != S.zero)
            assert idx[frozenset(closed)] == Ftab.mul(i, j), name


# ---------------------------------------------------------------------------
# the distributive completion

def test_completion_sizes():
    sizes = {
        "chain2": 2,
        "chain3": 2,
        "chain4": 2,
        "cube2": 4,
        "cube3": 8,
        "diamond": 4,
        "I(1)": 2,
        "I(2)": 7,
        "adjoined_z2": 3,
        "clifford_witness": 2,
        "B2": 7,
        "B3": 34,
        # partial pattern count over 2x2 cells with entries in Z/2:
        # 1 empty + 8 singles + 2*4 full patterns
        "B2(Z2)": 17,
        "union_of_chains": 4,
    }
    corpus = meet_corpus()
    for name, want in sizes.items():
        comp = FC.distributive_completion(corpus[name])
        assert comp.D.m == want, name


def test_completion_of_boolean_table_is_the_table():
    # delta is a bijective homomorphism whenever S is already Boolean
    for name, S in meet_corpus().items():
        if not F.predicates(S)["boolean"]:
            continue
        comp = FC.distributive_completion(S)
        assert comp.D.m == S.m, name
        assert sorted(comp.delta) == list(range(S.m)), name
        for a in range(S.m):
            for b in range(S.m):
                assert comp.D.mul(comp.delta[a], comp.delta[b]) == comp.delta[S.mul(a, b)]


def test_completion_i2_explicit_isomorphism():
    I2 = i_k(2)
    comp = FC.distributive_completion(I2)
    assert comp.D.m == 7
    assert sorted(comp.delta) == list(range(7))
    assert comp.delta[I2.zero] == comp.D.zero


def test_completion_of_b2_and_b3_is_symmetric_like():
    # joining the orthogonal patterns of B_n fills in I(n)
    for name, k in (("B2", 2), ("B3", 3)):
        comp = FC.distributive_completion(meet_corpus()[name])
        Ik = i_k(k)
        assert comp.D.m == Ik.m, name
        assert F.predicates(comp.D)["boolean"], name


def test_completion_is_boolean_on_corpus():
    # tight filters equal ultrafilters at finite scale, so every completion
    # here comes out Boolean
    for name, S in meet_corpus().items():
        comp = FC.distributive_completion(S)
        assert F.predicates(comp.D)["boolean"], name


def test_completion_idempotent():
    for name in ("I(2)", "chain4", "B2", "clifford_witness", "union_of_chains"):
        comp = FC.distributive_completion(meet_corpus()[name])
        again = FC.distributive_completion(comp.D)
        assert again.D.m == comp.D.m, name
        assert sorted(again.delta) == list(range(comp.D.m)), name


def test_completion_requires_meets():
    with pytest.raises(F.TableError):
        FC.distributive_completion(no_meet())


def test_completion_takes_arrows_in_class_order():
    # x lies above the atom a and comes first, so the 0-minimal classes run
    # {x, a}, {b} while the 0-minimal elements run b, a: the groupoid of S
    # must take its arrows in the class order of Q, named as Q names them
    S = F.MulTable(
        [[0, 0, 0, 0], [0, 1, 0, 3], [0, 0, 2, 0], [0, 3, 0, 3]],
        zero=0,
        names=["0", "x", "b", "a"],
    )
    comp = FC.distributive_completion(S)
    assert comp.lam == [0, 1, 2, 1]
    assert comp.D.names == comp.names == ["{}", "{x}", "{b}", "{x,b}"]
    assert comp.delta == [0, 1, 2, 1]
    assert [sorted(cl.support) for cl in comp.classes] == [[], [1], [2], [1, 2]]
    # every route takes that one order: the round trip's verdict and witness
    # do not depend on it, and part 1 matches the same supports
    G, elems = D._groupoid_of_minimals(S)
    assert elems == [3, 2] and G.names == ["x", "b"]
    assert D.duality_roundtrip(S) == (False, "V_x = V_a but the elements differ")
    assert FC.part1_isomorphism(S) == (True, [0, 1, 2, 3])


def test_one_arrow_order_on_random_relabelled_tables():
    # relabelling moves the first element of a class, so on some of these
    # tables, the Clifford ones with classes of more than one element, the
    # class order of the 0-minimal elements is not index order; the hooks
    # re-prove each answer on each table
    rng = random.Random(19)
    tables = [TS.random_inverse_subsemigroup(i_k(3), rng, rng.randrange(1, 3)) for _ in range(8)]
    tables += [TS.random_inverse_subsemigroup(i_k(4), rng, 1) for _ in range(4)]
    tables += [TS.random_clifford(rng) for _ in range(22)]
    reordered = 0
    for S in tables:
        sizes = set()
        for T in (S, relabeled(S, rng), relabeled(S, rng)):
            elems = D._groupoid_of_minimals(T)[1]
            reordered += elems != sorted(elems)
            boolean = F._meet_semigroup(T) and F._boolean(T)
            assert D.duality_roundtrip(T)[0] == boolean
            if boolean:
                assert D.ultrafilter_groupoid(T).m == len(elems)
            else:
                with pytest.raises(F.TableError):
                    D.ultrafilter_groupoid(T)
            if not F._meet_semigroup(T):
                with pytest.raises(F.TableError, match="every meet"):
                    FC.distributive_completion(T)
                continue
            sizes.add(len(FC.distributive_completion(T).classes))
            assert FC.part1_isomorphism(T)[0]
        assert len(sizes) <= 1, "relabelling changed the completion's size"
    assert reordered, "no table took its arrows out of index order"


def test_completion_on_i5_allocates_under_two_tables(theorem_checks_off):
    # no quotient table and no arrow matrix: beside D's own int32 table the
    # completion keeps the support matrix and one block of products; an
    # allocation count, so it repeats exactly
    S = i_k(5)
    F._meet_semigroup(S)  # phi is S's own, filled on first use
    tracemalloc.start()
    try:
        comp = FC.distributive_completion(S)
        comp.D  # built on first read
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comp.D.m == S.m and sorted(comp.delta) == list(range(S.m))
    assert comp.lam == list(range(S.m))
    assert peak <= 2 * S.T.nbytes


def test_completion_on_i5_allocates_under_a_quarter_table_until_d_is_read(theorem_checks_off):
    # the classes, their names and delta come from the local bisections;
    # D's table waits for its first reader
    S = i_k(5)
    F._meet_semigroup(S), S.minimal_components(), S.lenz_classes()  # S's own vectors
    tracemalloc.start()
    try:
        comp = FC.distributive_completion(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(comp.names) == len(comp.classes) == S.m
    assert peak < S.T.nbytes / 4


def test_delta_image_supports_are_minsets():
    for name in ("I(2)", "B2", "chain3", "clifford_witness", "B2(Z2)"):
        S = meet_corpus()[name]
        comp = FC.distributive_completion(S)
        Q = TS.lenz_congruence(S)[0]
        for s in S.nonzero():
            cl = comp.classes[comp.delta[s]]
            assert cl.support == Q.minset(comp.lam[s]), name
        assert comp.classes[comp.D.zero].support == frozenset()


def test_every_class_is_a_join_of_delta_images():
    for name, S in meet_corpus().items():
        comp = FC.distributive_completion(S)
        pre = {}
        for s in range(S.m):
            pre.setdefault(comp.lam[s], s)
        for c, cl in enumerate(comp.classes):
            gens = [comp.delta[pre[t]] for t in sorted(cl.support)]
            assert comp.D.join_of_set(gens) == c, name


def test_class_supports_are_unique_keys():
    for name in ("I(2)", "B2(Z2)", "union_of_chains"):
        S = meet_corpus()[name]
        comp = FC.distributive_completion(S)
        sups = [cl.support for cl in comp.classes]
        assert len(set(sups)) == len(sups)
        # the ideal each support generates carries just that support
        Q = TS.lenz_congruence(S)[0]
        zmin = set(Q.zero_minimal())
        for cl in comp.classes:
            gen = TS.CompatibleIdeal(tuple(sorted(cl.support)))
            assert TS.ideal_members(Q, gen) & zmin == cl.support


# ---------------------------------------------------------------------------
# Booleanization report

def test_booleanization_semilattice_reports():
    expected = {
        "chain2": (2, True),
        "chain3": (2, False),
        "chain4": (2, False),
        "cube2": (4, True),
        "cube3": (8, True),
        "diamond": (4, True),
        # zero_direct_union(chain(2), chain(2)) is two orthogonal atoms
        "union_of_chains": (4, True),
    }
    corpus = meet_corpus()
    for name, (dsize, dense) in expected.items():
        rep = FC.booleanization_report(corpus[name])
        assert rep["D_size"] == dsize, name
        assert rep["densely_embedded"] is dense, name
        for flag in ("tight_eq_ultra", "D_boolean", "unital", "compactable", "part1_iso"):
            assert rep[flag] is True, (name, flag)
        assert rep["trapping"] == "vacuous"


def test_booleanization_essential_sets():
    assert FC.booleanization_report(chain(2))["essential_set"] == ["c1"]
    assert FC.booleanization_report(cube(2))["essential_set"] == ["01", "10"]
    assert FC.booleanization_report(diamond())["essential_set"] == ["a", "b"]


def test_booleanization_on_inverse_semigroups():
    rep = FC.booleanization_report(i_k(2))
    assert rep["D_size"] == 4
    assert rep["essential_set"] == ["[0>0]", "[1>1]"]
    assert rep["densely_embedded"] is True
    rep = FC.booleanization_report(b2())
    assert rep["D_size"] == 4 and rep["part1_iso"] is True
    rep = FC.booleanization_report(clifford_witness())
    assert rep["D_size"] == 2
    assert rep["densely_embedded"] is False  # its E is the 3-chain
    assert rep["part1_iso"] is True
    rep = FC.booleanization_report(i_k(3))
    assert rep["D_size"] == 8 and rep["densely_embedded"] is True


def test_part1_isomorphism_explicit():
    ok, mapping = FC.part1_isomorphism(i_k(2))
    assert ok and sorted(mapping) == [0, 1, 2, 3]
    for name in ("B2", "chain3", "clifford_witness", "B2(Z2)", "I(1)xI(2)"):
        ok, mapping = FC.part1_isomorphism(meet_corpus()[name])
        assert ok, name
        assert sorted(mapping) == list(range(len(mapping))), name


# ---------------------------------------------------------------------------
# orthogonalize

def test_orthogonalize_table():
    I2 = i_k(2)
    pos = {I2.name(i): i for i in range(I2.m)}
    kept = TS.orthogonalize(I2, [pos["[0>0]"], pos["[0>0,1>1]"]])
    assert [I2.name(x) for x in kept] == ["[0>0,1>1]"]
    both = [pos["[0>0]"], pos["[1>1]"]]
    assert TS.orthogonalize(I2, both) == sorted(both)
    kept = TS.orthogonalize(I2, [I2.zero, pos["[0>0]"]])
    assert [I2.name(x) for x in kept] == ["[0>0]"]
    with pytest.raises(F.TableError):
        TS.orthogonalize(I2, [pos["[0>0,1>1]"], pos["[0>1,1>0]"]])


def test_orthogonalize_preconditions():
    # 011 ^ 110 = 010 with the two incomparable: not unambiguous
    with pytest.raises(F.TableError):
        TS.orthogonalize(cube(3), [3, 6])
    # unambiguous but not E*-unitary: e <= g with g not idempotent
    with pytest.raises(F.TableError):
        TS.orthogonalize(clifford_witness(), [1])
    with pytest.raises(F.TableError):
        TS.orthogonalize(i2_x_i2(), [0])


# ---------------------------------------------------------------------------
# the universal property

def _subsets(base):
    base = sorted(base)
    for r in range(len(base) + 1):
        yield from (set(c) for c in itertools.combinations(base, r))


def _partial_identity(I3, points):
    if not points:
        return I3.zero
    name = "[" + ",".join("%d>%d" % (p, p) for p in sorted(points)) + "]"
    return [i for i in range(I3.m) if I3.name(i) == name][0]


def test_universal_property_delta_itself():
    for name in ("I(2)", "chain3", "B2", "clifford_witness", "union_of_chains"):
        S = meet_corpus()[name]
        comp = FC.distributive_completion(S)
        ok, bar = FC.check_universal_property(S, comp.D, comp.delta)
        assert ok
        assert bar == list(range(comp.D.m)), name


def test_universal_property_all_maps_into_i3():
    # every cover-to-join homomorphism E(I(2)) -> I(3) is a disjoint pair of
    # partial identities; all of them must extend
    I3 = i_k(3)
    E4, _ = F.idempotent_subtable(i_k(2))
    pos = {E4.name(i): i for i in range(E4.m)}
    z, e0, e1, top = pos["[]"], pos["[0>0]"], pos["[1>1]"], pos["[0>0,1>1]"]
    count = 0
    for A in _subsets({0, 1, 2}):
        for B in _subsets({0, 1, 2} - A):
            theta = [0] * 4
            theta[z] = I3.zero
            theta[e0] = _partial_identity(I3, A)
            theta[e1] = _partial_identity(I3, B)
            theta[top] = _partial_identity(I3, A | B)
            ok, bar = FC.check_universal_property(E4, I3, theta)
            assert ok, bar
            count += 1
    assert count == 27


def test_universal_property_rejects_planted_defects():
    I3 = i_k(3)
    E4, _ = F.idempotent_subtable(i_k(2))
    pos = {E4.name(i): i for i in range(E4.m)}
    z, e0, e1, top = pos["[]"], pos["[0>0]"], pos["[1>1]"], pos["[0>0,1>1]"]
    # collapses the atoms but not the top: violates the cover {e0, e1}
    theta = [0] * 4
    theta[z] = theta[e0] = theta[e1] = I3.zero
    theta[top] = _partial_identity(I3, {0})
    ok, why = FC.check_universal_property(E4, I3, theta)
    assert ok is False and "cover" in why
    # non-homomorphism: the top goes to a non-idempotent
    swap = [i for i in range(I3.m) if I3.name(i) == "[0>1,1>0,2>2]"][0]
    theta[e0] = _partial_identity(I3, {0})
    theta[e1] = _partial_identity(I3, {1})
    theta[top] = swap
    ok, why = FC.check_universal_property(E4, I3, theta)
    assert ok is False and "homomorphism" in why
    # distributivity of the target is required
    B2 = b2()
    e11 = [i for i in range(B2.m) if B2.name(i) == "(1|1|1)"][0]
    ok, why = FC.check_universal_property(chain(2), B2, [B2.zero, e11])
    assert ok is False and "distributive" in why
    with pytest.raises(F.TableError):
        FC.check_universal_property(E4, I3, [0, 0, 0])
    with pytest.raises(F.TableError):
        FC.check_universal_property(E4, I3, [0, 0, 0, 99])


def test_universal_property_random_consistency():
    # accept exactly the zero-preserving cover-to-join homomorphisms; sample
    # half near valid maps so both verdicts occur
    rng = random.Random(7)
    I3 = i_k(3)
    E4, _ = F.idempotent_subtable(i_k(2))
    pos = {E4.name(i): i for i in range(E4.m)}
    z, e0, e1, top = pos["[]"], pos["[0>0]"], pos["[1>1]"], pos["[0>0,1>1]"]
    accepted = 0
    rejected = 0
    for _ in range(300):
        if rng.random() < 0.5:
            a_set = {p for p in range(3) if rng.random() < 0.5}
            b_set = {p for p in {0, 1, 2} - a_set if rng.random() < 0.5}
            theta = [0] * 4
            theta[z] = I3.zero
            theta[e0] = _partial_identity(I3, a_set)
            theta[e1] = _partial_identity(I3, b_set)
            theta[top] = _partial_identity(I3, a_set | b_set)
            if rng.random() < 0.5:
                theta[rng.randrange(4)] = rng.randrange(I3.m)
        else:
            theta = [rng.randrange(I3.m) for _ in range(E4.m)]
            if rng.random() < 0.7:
                theta[E4.zero] = I3.zero
        hom = theta[E4.zero] == I3.zero and all(
            theta[E4.mul(a, b)] == I3.mul(theta[a], theta[b])
            for a in range(E4.m)
            for b in range(E4.m)
        )
        c2j = hom and all(
            I3.join_of_set(theta[x] for x in E4.minset(s)) == theta[s]
            for s in range(E4.m)
        )
        ok, _out = FC.check_universal_property(E4, I3, theta)
        assert ok == c2j
        accepted += ok
        rejected += not ok
    assert accepted > 0 and rejected > 0


def test_theta_bar_restricts_and_preserves_joins():
    # spot-check the returned extension beyond the module's own audit
    S = b2()
    comp = FC.distributive_completion(S)
    T = comp.D
    ok, bar = FC.check_universal_property(S, T, comp.delta)
    assert ok
    for s in range(S.m):
        assert bar[comp.delta[s]] == comp.delta[s]
    for a in range(T.m):
        for b in range(T.m):
            j = T.join(a, b)
            if j is not None:
                assert T.join(bar[a], bar[b]) == bar[j]
