"""Theorem checks that run on the library calls the test suite makes.

The library computes each answer once, by one route.  The checks below
re-prove the theorems behind those answers from a call's inputs and its
result: each is a plain function check(*inputs, result).  The session
fixture `recheck_theorems` wraps each library function once, in its own
module, so that each call made by a test, directly or from inside the
library or a check, is followed by its check; the library calls a wrapped
function through its module, never by an imported name
(tests/test_source.py holds it to that).  A table hook re-proves each
distinct input, by value, once per session, and a repeat compares its
result with the one proved; the Cuntz and graph hooks check every call.
"""

import contextlib
import functools
import itertools

import numpy as np
import pytest

from stonedual import duality as D
from stonedual import filtercomp as FC
from stonedual import finitesgp as F
from stonedual import graphisg as gi
from stonedual import polycyclic as pc
from stonedual import thompson as TH
from stonedual import words as wd
import tests_support_tables as TS
from tests_support_tables import principal_congruence

# the O(m^4) enumeration route of is_congruence_free runs up to this size
ENUMERATION_LIMIT = 60
# the compatible-ideal route of the completion runs up to this size of the
# Lenz quotient: I(3) has 34 elements and 100 compatible ideals, while I(4)
# has 209 elements and 3761, above the element cap
IDEAL_ROUTE_LIMIT = 60


# ---------------------------------------------------------------------------
# finitesgp


def check_is_congruence_free(S, result):
    if S.m <= ENUMERATION_LIMIT:
        by_enumeration = S.m >= 2 and all(
            max(principal_congruence(S, a, b)) == 0
            for a in range(S.m)
            for b in range(a + 1, S.m)
        )
        assert result == by_enumeration, "congruence-freeness routes disagree"


def check_validate(table, zero, *args, identity=None):
    *given, diag = args
    identity = given[0] if given else identity
    assert diag == TS.validate_by_index_order(table, zero, identity), (
        "the generating-set route must name the index-order diagnostic"
    )


def check_check_axioms(table, zero, identity, result):
    assert TS.validate_by_index_order(table, zero, identity) is None
    gens, inv = result
    arr, idx = np.asarray(table), np.arange(len(table))
    assert TS.generated(arr, gens) == len(arr), "gens must generate the table"
    assert (arr[arr[idx, inv], idx] == idx).all(), "s s^-1 s must be s"
    assert (arr[arr[inv, idx], inv] == inv).all(), "s^-1 s s^-1 must be s^-1"


def check_distributive(S, result):
    assert result == TS.distributive_for_every_c(S), (
        "distributivity over generators must match it over every c"
    )


def check_boolean(S, result):
    assert result == TS.boolean_by_definition(S), (
        "distinct supports, as many as the local bisections, must decide Boolean"
    )


def check_predicates(S, rep):
    # a Boolean table is distributive by definition, and predicates builds
    # no join table for it
    assert rep["distributive"] == F._distributive(S), "distributive flags disagree"


def check_zero_simple(S, result):
    every = S.m >= 2 and all(len(TS.principal_ideal(S, s)) == S.m for s in S.nonzero())
    assert result == every, "one connected groupoid of 0-minimal elements must decide 0-simplicity"


def check_all_ideals(S, result):
    assert result == TS.ideals_from_every_element(S), (
        "idempotents must generate every ideal"
    )


def check_tightly_closed_ideals(S, result):
    if S.m <= IDEAL_ROUTE_LIMIT:
        assert result == TS.tightly_closed_ideals_by_enumeration(S), (
            "the unions of 0-minimal components must give the tightly closed ideals"
        )


def check_is_zero_simplifying(S, result):
    assert result == TS.zero_simplifying_by_preorder(S), "0-simplifying routes disagree"


def check_zero_disjunctive(S, result):
    assert result == TS.zero_disjunctive_by_idempotents(S), (
        "distinct supports of nonzero idempotents must decide 0-disjunctivity"
    )


def check_meet_semigroup(S, result):
    assert result == bool((TS.meet_table_by_counting(S) >= 0).all()), (
        "a total phi must mean that every meet exists"
    )


def _prove_lenz_classes(S, result):
    lam, reps = result
    firsts = {}
    for s, c in enumerate(lam):
        firsts.setdefault(c, s)
    assert list(firsts.items()) == list(enumerate(reps)), "classes go by first appearance"
    assert [s for s in range(S.m) if lam[s] == lam[S.zero]] == [S.zero]
    by_support = {}
    for s in range(S.m):
        assert by_support.setdefault(S.minset(s), lam[s]) == lam[s], "one class per support"
    assert len(by_support) == len(reps), "one support per class"
    if S.m > IDEAL_ROUTE_LIMIT or not F._meet_semigroup(S):
        return
    # by enumeration, the classes are exactly those of the symmetrized arrow
    labels = np.array(lam)[S.nonzero()]
    both = TS.arrow_equivalence(S)
    assert (np.equal.outer(labels, labels) == both).all(), "classes must be arrow-equivalence"


# the labelling reads the table and its zero alone, so each table content,
# however it is named, is proved once
check_lenz_classes = TS.by_value(_prove_lenz_classes, lambda S, result: (S.T, S.zero, result))


def check_meet(S, a, b, result):
    want = int(TS.meet_table_by_counting(S)[a, b])
    assert result == (None if want < 0 else want), "phi(a b^-1) b must be the meet"


# ---------------------------------------------------------------------------
# filtercomp


def check_lenz_congruence(S, result):
    Q, lam = result
    for s in S.nonzero():
        assert TS.arrow_enum(S, s, [s]), "arrow must be reflexive on nonzero elements"
    assert [s for s in range(S.m) if lam[s] == lam[S.zero]] == [S.zero]
    lam_arr = np.array(lam)
    # the class of a product depends only on the classes
    assert (Q.T[lam_arr[:, None], lam_arr[None, :]] == lam_arr[S.T]).all()
    assert TS.validate(Q.T, Q.zero, Q.identity) is None, "Q must be a valid table"
    # separative: on the quotient the arrow is the natural order, decided by
    # enumeration, independently of the library's 0-minimal route
    for a in Q.nonzero():
        for b in range(Q.m):
            assert TS.arrow_enum(Q, a, [b]) == Q.leq(a, b)
    # lam preserves meets; its classes, S's cached labelling, are re-proved
    # to be those of the symmetrized arrow by check_lenz_classes
    for s in range(S.m):
        for t in range(S.m):
            assert Q.meet(lam[s], lam[t]) == lam[S.meet(s, t)]


def check_fc_semigroup(S, result):
    Fm, _, iota = result
    assert F._distributive(Fm), "the ideal semigroup must be distributive"
    # principal downsets multiply like S
    iota_arr = np.array(iota)
    assert (Fm.T[iota_arr[:, None], iota_arr[None, :]] == iota_arr[S.T]).all()


def check_distributive_completion(S, comp):
    Dm, delta = comp.D, comp.delta
    # the completion reads the 0-minimal groupoid of S; build the quotient Q
    # it stands for, whose own groupoid gives the same table
    Q, lam = TS.lenz_congruence(S)
    assert comp.lam == lam, "the completion's lam must be the Lenz quotient's"
    with RECHECKER.unchecked():
        G, sets, supports, phi = D._minimal_bisections(Q)
        B = D._bisection_table(G, sets)
    assert (B.T == Dm.T).all() and B.names == Dm.names, "Q's groupoid gives another table"
    assert comp.names == Dm.names, "the classes must be named as D names them"
    assert supports == [cls.support for cls in comp.classes]
    assert delta == [phi[q] for q in lam], "delta must factor through Q"
    # `finite complete` prints boolean: true without testing it
    assert F._boolean(Dm), "the completion must be Boolean, so distributive"
    delta_arr = np.array(delta)
    assert (Dm.T[delta_arr[:, None], delta_arr[None, :]] == delta_arr[S.T]).all()
    assert all((delta[s] == Dm.zero) == (s == S.zero) for s in range(S.m))
    # covers become joins: each element is the join of the images of its
    # 0-minimal lower bounds, which sit below any of its covers
    for s in range(S.m):
        assert Dm.join_of_set(delta[x] for x in S.minset(s)) == delta[s]
    # every class is a join of delta images: pull supports back along lam
    pre = {}
    for s in range(S.m):
        pre.setdefault(comp.lam[s], s)
    for c, cls in enumerate(comp.classes):
        assert Dm.join_of_set(delta[pre[t]] for t in sorted(cls.support)) == c
    if Q.m > IDEAL_ROUTE_LIMIT:
        return
    # the same completion by way of the compatible order ideals of Q
    ref, xi, iota, Fm, ideals = TS.completion_by_ideals(Q)
    xi_arr = np.array(xi)
    assert (ref.T[xi_arr[:, None], xi_arr[None, :]] == xi_arr[Fm.T]).all(), (
        "support equality must be a congruence"
    )
    assert Dm.m == ref.m and (Dm.T == ref.T).all(), "the routes give different tables"
    assert Dm.names == ref.names
    assert Dm.zero == ref.zero and Dm.find_identity() == ref.find_identity()
    assert delta == [xi[iota[q]] for q in comp.lam], "the routes give different delta"
    # the support of each class generates a compatible ideal in that class
    member_index = {TS.ideal_members(Q, ci): i for i, ci in enumerate(ideals)}
    for c, cls in enumerate(comp.classes):
        gen = TS.ideal_members(Q, TS.CompatibleIdeal(tuple(sorted(cls.support))))
        assert xi[member_index[gen]] == c


def check_part1_isomorphism(S, result):
    ok, mapping = result
    E, emb = F.idempotent_subtable(S)
    comp_s = FC.distributive_completion(S)
    comp_e = FC.distributive_completion(E)
    Q = TS.lenz_congruence(S)[0]
    trans = {}
    for e in range(E.m):
        qe, qs = comp_e.lam[e], comp_s.lam[emb[e]]
        assert trans.setdefault(qe, qs) == qs, (
            "idempotent arrow classes must agree in S and E(S)"
        )
    ED, embD = F.idempotent_subtable(comp_s.D)
    for i in range(ED.m):
        assert all(Q.is_idem[t] for t in comp_s.classes[embD[i]].support)
    # part 1 holds on every inverse meet-semigroup, and the library matches
    # supports without D's table: re-prove the match on the tables
    assert ok and len(mapping) == comp_e.D.m == ED.m, "E(D(S)) and D(E(S)) must match"
    for j, i in enumerate(mapping):
        want = frozenset(trans[t] for t in comp_e.classes[j].support)
        assert comp_s.classes[embD[i]].support == want, "the match must keep supports"
    assert not F._hom_defects(comp_e.D, ED, mapping).any(), "the match must multiply"
    assert mapping[comp_e.D.zero] == ED.zero, "the match must keep zero"


def check_is_tight_filter(S, generator, result):
    assert result == TS.tight_by_covers(S, generator), (
        "tight must mean 0-minimal on finite tables"
    )


def check_booleanization_report(S, report):
    # the report reads its flags off the finite theorems: recompute each by
    # its definition, which builds the completions of E(S) and of S
    assert report == TS.booleanization_by_definition(S), (
        "a flag of the report disagrees with its definition"
    )
    E, _ = F.idempotent_subtable(S)
    comp_e = FC.distributive_completion(E)
    ident = comp_e.D.find_identity()
    atoms = E.zero_minimal()
    assert comp_e.D.join_of_set(comp_e.delta[a] for a in atoms) == ident, (
        "the atoms must join to the identity of the completion"
    )


def check_orthogonalize(S, X, kept):
    for a, b in itertools.combinations(kept, 2):
        assert S.orthogonal(a, b)
    for a in set(int(x) for x in X):
        assert any(S.leq(a, b) for b in kept)


def check_universal_property(S, T, theta, result):
    theta = [int(x) for x in theta]
    th = np.array(theta)
    # the cover-to-join audit is reached by zero-preserving homomorphisms
    # into distributive targets
    homomorphism = (th[S.T] == T.T[th[:, None], th[None, :]]).all()
    if theta[S.zero] != T.zero or not homomorphism or not F._distributive(T):
        return

    def audit(elems):
        for s in elems:
            if T.join_of_set(theta[x] for x in S.minset(s)) != theta[s]:
                return s
        return None

    bad_idem = audit([e for e in range(S.m) if S.is_idem[e]])
    bad_any = audit(range(S.m))
    assert (bad_idem is None) == (bad_any is None), (
        "cover-to-join must be decided on the idempotents"
    )
    if bad_any is None:
        # theta is constant on arrow classes
        comp = FC.distributive_completion(S)
        theta_q = {}
        for s in range(S.m):
            assert theta_q.setdefault(comp.lam[s], theta[s]) == theta[s]


# ---------------------------------------------------------------------------
# duality


def check_groupoid_of_minimals(S, result):
    # the library reads the groupoid off the table; rebuild it the old way,
    # every composite written out, so that the validating constructor
    # re-proves the groupoid axioms and finds the inverses by search
    G, elems = result
    lam, reps = S.lenz_classes()
    assert elems == sorted(S.zero_minimal(), key=lam.__getitem__), "arrows go in class order"
    el = np.array(elems, dtype=np.intp)
    pos = np.full(S.m, -1)
    pos[el] = np.arange(len(el))
    composable = S.dom[el][:, None] == S.ran[el][None, :]
    prods = pos[S.T[np.ix_(el, el)]]
    comp = {(int(a), int(b)): int(prods[a, b]) for a, b in zip(*np.nonzero(composable))}
    objects = [a for a, s in enumerate(elems) if S.is_idem[s]]
    names = [S.name(reps[lam[s]]) for s in elems]
    ref = D.FiniteGroupoid(objects, pos[S.dom[el]], pos[S.ran[el]], comp, names)
    assert G.C.dtype == ref.C.dtype and (G.C == ref.C).all(), "composites differ"
    assert (G.dom, G.ran, G.objects) == (ref.dom, ref.ran, ref.objects), "endpoints differ"
    assert (G.inv, G.names) == (ref.inv, ref.names), "inverses or names differ"


def check_ultrafilter_groupoid(S, G):
    # `finite dualize` prints roundtrip: true once the groupoid accepts S
    assert D.duality_roundtrip(S)[0], "the round trip must hold on Boolean tables"
    # the table product of composable 0-minimal elements is the filter product
    elems = S.zero_minimal()
    for s in elems:
        for t in elems:
            if S.dom[s] != S.ran[t]:
                continue
            prods = {S.mul(x, y) for x in S.above(s) for y in S.above(t)}
            closure = set()
            for p in prods:
                closure.update(S.above(p))
            assert closure == set(S.above(S.mul(s, t))), (
                "filter product disagrees with the table product"
            )


def check_bisection_table(G, sets, B):
    ref = TS.bisection_table_by_sets(G, sets)
    assert (B.T == ref.T).all(), "the keyed route must give the setwise table"
    assert (B.zero, B.identity, B.names) == (ref.zero, ref.identity, ref.names)
    assert TS.validate(B.T, B.zero, B.identity) is None, "bisections must form a table"
    objset = frozenset(G.objects)
    incl = np.array([[A <= Bs for Bs in sets] for A in sets])
    assert (incl == B._leq).all(), "natural order must be inclusion"
    for i, A in enumerate(sets):
        assert bool(B.is_idem[i]) == (A <= objset), (
            "idempotents must be the object subsets"
        )
    assert F._meet_semigroup(B), "bisections must have all meets"
    assert F._boolean(B), "bisections must form a Boolean table"


def check_local_bisections(G, sets):
    objects = np.isin(np.arange(G.m), G.objects)
    assert len(sets) == F._bisection_count(*F._components(G.dom, G.ran), objects), (
        "Brandt's count must number the local bisections"
    )
    assert len(set(sets)) == len(sets)


def check_duality_roundtrip(S, result):
    ok, phi = result
    G, elems = D._groupoid_of_minimals(S)
    pos = {s: i for i, s in enumerate(elems)}
    sets = set(D.local_bisections(G))
    for s in range(S.m):
        V = frozenset(pos[t] for t in S.minset(s))
        assert V in sets, "each V_s is a local bisection"
    boolean = F._meet_semigroup(S) and F._boolean(S)
    assert ok == boolean, "the round trip succeeds exactly on Boolean tables"
    if not ok:
        return
    B = D.bisection_semigroup(G)
    arr = np.asarray(phi)
    assert sorted(phi) == list(range(B.m)), "phi must be a bijection"
    assert (arr[S.T] == B.T[arr[:, None], arr[None, :]]).all(), (
        "phi must carry the table product to the bisection product"
    )
    assert phi[S.zero] == B.zero


def check_ideal_correspondence(S, pairs):
    G, elems = D._groupoid_of_minimals(S)
    comps = [frozenset(elems[a] for a in comp) for comp in TS.components(G)]
    invariants = set()
    for bits in range(1 << len(comps)):
        chosen = [comps[i] for i in range(len(comps)) if bits >> i & 1]
        invariants.add(frozenset().union(*chosen) if chosen else frozenset())
    assert len(invariants) == 1 << len(comps)
    ideals = F.tightly_closed_ideals(S)
    minimals = frozenset(elems)

    def come_back(O):
        return frozenset(s for s in range(S.m) if S.minset(s) <= O)

    assert [T for T, _ in pairs] == ideals
    for T, O in pairs:
        assert O in invariants, "O(T) must be a union of components"
        assert come_back(O) == T, "C(O(T)) must recover the ideal"
    for O in invariants:
        T = come_back(O)
        assert T in ideals, "C(O) must be a tightly closed ideal"
        assert frozenset(T) & minimals == O, "O(C(O)) must recover the subset"
    assert len(ideals) == len(invariants)
    for T1, O1 in pairs:
        for T2, O2 in pairs:
            assert (T1 <= T2) == (O1 <= O2), "the pairing must respect order"
    # in a Boolean table, tightly closed = closed under the joins that exist
    for T in TS.all_ideals(S):
        by_joins = all(
            S.join(a, b) in T
            for a in T
            for b in T
            if S.compatible(a, b) and S.join(a, b) is not None
        )
        assert by_joins == TS.is_tightly_closed_ideal(S, T)


def check_classify_symmetric(S, result):
    k, phi = result
    if k is None:
        return
    I = TS.i_k(k)
    arr = np.asarray(phi)
    assert sorted(phi) == list(range(I.m)), "the atom action must be a bijection"
    assert (arr[S.T] == I.T[arr[:, None], arr[None, :]]).all(), (
        "the atom action must be multiplicative"
    )
    assert phi[S.zero] == I.zero and phi[S.find_identity()] == I.find_identity()


def check_principal_criterion(S, ok):
    for e in S.zero_minimal():
        if not S.is_idem[e]:
            continue
        up, fc = TS._up_and_fc(S, S._leq[e])
        assert up <= fc, "the up-set of an ultrafilter sits inside F^c"
        assert {x for x in fc if S.is_idem[x]} == {x for x in up if S.is_idem[x]}, (
            "the idempotent part of F^c is F"
        )
    G, _ = D._groupoid_of_minimals(S)
    assert ok == TS.is_principal(G), "criterion must match trivial local groups"
    assert ok == F._fundamental(S), (
        "criterion must match fundamental on finite Boolean tables"
    )


# ---------------------------------------------------------------------------
# graphisg


def _check_rebuilds(p):
    # a computed path extends a validated one, and make_path still accepts it
    assert wd.make_path(p.graph, p.anchor, p.edges) == p, "not a path of the graph"


def check_gisg_mul(s, t, st):
    if gi.gisg_is_zero(st):
        return
    _check_rebuilds(st.u)
    _check_rebuilds(st.v)
    assert wd.path_dom(st.u) == wd.path_dom(st.v), "paths end at different vertices"


def check_gisg_act(s, p, image):
    if image is not None:
        _check_rebuilds(image)


# ---------------------------------------------------------------------------
# thompson


def _plain(x):
    """x with its parts in a plain frozenset, which carries no leaf map, so
    that the library scans them afresh."""
    return TH.CuntzElement(x.n, x.r, frozenset(x.parts))


def _check_carried(x):
    # an element the library builds carries the leaf map of its normal form,
    # which no operation scans again: it is the map a fresh scan gives
    assert isinstance(x.parts, TH._NormalParts), "no leaf map carried"
    assert x.parts.leaf == TH._normal(_plain(x)), "carried leaf map is stale"


def check_cuntz(n, r, parts, x):
    _check_carried(x)


def check_cuntz_normalize(x, nf):
    _check_carried(nf)
    # gluing keeps the set orthogonal: a glued part is the join of parts that
    # were orthogonal to everything else, and that survives the join
    for a, b in itertools.combinations(nf.parts, 2):
        assert pc.ext_orthogonal(a, b)
    # a zero part, which products and meets leave, lies under any join
    nonzero = [a for a in x.parts if not pc.ext_is_zero(a)]
    assert all(pc.ext_lenz_arrow(a, nf.parts) for a in nonzero)
    assert all(pc.ext_lenz_arrow(b, x.parts) for b in nf.parts)


def _check_against_parts(x, parts, result):
    # the reference route: normalize the nonzero part set
    nonzero = [a for a in parts if not pc.ext_is_zero(a)]
    raw = TH.CuntzElement(x.n, x.r, frozenset(nonzero))
    check_cuntz_normalize(raw, result)
    with RECHECKER.unchecked():
        assert TH.cuntz_normalize(raw).parts == result.parts


def check_cuntz_mul(x, y, xy):
    _check_carried(xy)
    # the product of two joins is the join of the products of their parts
    _check_against_parts(x, [pc.ext_mul(a, b) for a in x.parts for b in y.parts], xy)


def check_cuntz_inv(x, inv):
    _check_carried(inv)
    _check_against_parts(x, [pc.ext_inv(a) for a in x.parts], inv)


def check_cuntz_meet(x, y, meet):
    _check_carried(meet)
    # the meet of two joins is the join of the meets of their parts
    _check_against_parts(x, [pc.ext_meet(a, b) for a in x.parts for b in y.parts], meet)


def check_cuntz_join(x, y, join):
    _check_carried(join)
    _check_against_parts(x, [*x.parts, *y.parts], join)


def check_is_unit(x, unit):
    # a set of words glues down to the roots iff it is an r-rooted maximal
    # prefix code; the codes are read off the parts of the normal form
    with RECHECKER.unchecked():
        parts = TH.cuntz_normalize(_plain(x)).parts
    codes = (
        [wd.RootedWord(p.j, p.m.x) for p in parts],
        [wd.RootedWord(p.i, p.m.y) for p in parts],
    )
    full = all(wd.is_rooted_maximal_prefix_code(c, x.n, x.r) for c in codes)
    assert unit == (bool(parts) and full)


def check_cuntz_eq(x, y, same):
    with RECHECKER.unchecked():
        nx, ny = TH.cuntz_normalize(_plain(x)), TH.cuntz_normalize(_plain(y))
    fwd = all(pc.ext_lenz_arrow(a, ny.parts) for a in nx.parts)
    bwd = all(pc.ext_lenz_arrow(b, nx.parts) for b in ny.parts)
    assert same == (fwd and bwd)


def check_tp_to_unit(g, x):
    _check_carried(x)
    assert TH.is_unit(x)
    # the leaves of a reduced pair leave nothing to discard or glue
    with RECHECKER.unchecked():
        assert TH.cuntz_normalize(_plain(x)).parts == x.parts


def check_tp_built(arg, g):
    # a pair built from a proven leaf map, with no code check, is one that
    # tree_pair accepts, codes checked, and leaves as it is
    assert TH.tree_pair(g.n, g.r, g.domain, g.range, g.perm) == g


def check_tp_from_unit(x, g):
    check_tp_built(x, g)
    # a contractible part family is the same thing as a reducible leaf family
    with RECHECKER.unchecked():
        assert TH.tp_reduce(g) == g


# ---------------------------------------------------------------------------
# wiring

RECHECKS = [
    (TS, "validate", check_validate),
    (F, "_check_axioms", check_check_axioms),
    (F, "_distributive", check_distributive),
    (F, "_boolean", check_boolean),
    (F, "predicates", check_predicates),
    (F, "_zero_simple", check_zero_simple),
    (F, "_zero_disjunctive", check_zero_disjunctive),
    (F, "_meet_semigroup", check_meet_semigroup),
    (F.MulTable, "meet", check_meet),
    (F.MulTable, "lenz_classes", check_lenz_classes),
    (TS, "all_ideals", check_all_ideals),
    (F, "tightly_closed_ideals", check_tightly_closed_ideals),
    (F, "is_congruence_free", check_is_congruence_free),
    (F, "is_zero_simplifying", check_is_zero_simplifying),
    (TS, "lenz_congruence", check_lenz_congruence),
    (TS, "fc_semigroup", check_fc_semigroup),
    (FC, "distributive_completion", check_distributive_completion),
    (FC, "part1_isomorphism", check_part1_isomorphism),
    (FC, "is_tight_filter", check_is_tight_filter),
    (FC, "booleanization_report", check_booleanization_report),
    (TS, "orthogonalize", check_orthogonalize),
    (FC, "check_universal_property", check_universal_property),
    (D, "_groupoid_of_minimals", check_groupoid_of_minimals),
    (D, "ultrafilter_groupoid", check_ultrafilter_groupoid),
    (D, "local_bisections", check_local_bisections),
    (D, "_bisection_table", check_bisection_table),
    (D, "duality_roundtrip", check_duality_roundtrip),
    (D, "ideal_correspondence", check_ideal_correspondence),
    (D, "classify_symmetric", check_classify_symmetric),
    (TS, "principal_criterion", check_principal_criterion),
    (gi, "gisg_mul", check_gisg_mul),
    (gi, "gisg_act", check_gisg_act),
    (TH, "cuntz", check_cuntz),
    (TH, "cuntz_normalize", check_cuntz_normalize),
    (TH, "cuntz_mul", check_cuntz_mul),
    (TH, "cuntz_inv", check_cuntz_inv),
    (TH, "cuntz_meet", check_cuntz_meet),
    (TH, "cuntz_join", check_cuntz_join),
    (TH, "cuntz_eq", check_cuntz_eq),
    (TH, "is_unit", check_is_unit),
    (TH, "tp_to_unit", check_tp_to_unit),
    (TH, "tp_from_unit", check_tp_from_unit),
    (TH, "tp_inv", check_tp_built),
    (TH, "tp_reduce", check_tp_built),
]


class _Rechecker:
    """Wraps library functions so that each call is followed by its check.

    A table hook checks the first call with each value of its inputs, as
    TS.digest names it; a repeat only asserts the result proved then.  A
    check's own hooked calls are checked alike, when their inputs are new."""

    def __init__(self):
        self.off = 0

    def wrap(self, func, check, once=True):
        proved = {}

        @functools.wraps(func)
        def checked(*args, **kwargs):
            result = func(*args, **kwargs)
            if self.off:
                return result
            if not once:
                check(*args, result, **kwargs)
                return result
            key, got = tuple(map(TS.digest, args + tuple(kwargs.items()))), TS.digest(result)
            if key in proved:
                assert proved[key] == got, "%s gave another result" % func.__qualname__
            else:
                check(*args, result, **kwargs)
                proved[key] = got
            return result

        return checked

    @contextlib.contextmanager
    def unchecked(self):
        self.off += 1
        try:
            yield
        finally:
            self.off -= 1


RECHECKER = _Rechecker()


@pytest.fixture()
def theorem_checks_off():
    """Run a test without the checks, so that it sees only library calls."""
    with RECHECKER.unchecked():
        yield


@pytest.fixture(scope="session", autouse=True)
def recheck_theorems():
    patch = pytest.MonkeyPatch()
    for module, name, check in RECHECKS:
        # the element hooks check every call: a value key would hide the
        # carried-map check
        hooked = RECHECKER.wrap(getattr(module, name), check, once=module not in (gi, TH))
        patch.setattr(module, name, hooked)
    yield
    patch.undo()
