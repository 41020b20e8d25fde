"""Filters, the Lenz congruence, and distributive completions of finite
inverse semigroup tables.

Everything here is finite, so a filter is the up-set of its minimum and an
order ideal is a finite downset named by its maximal antichain.  The
completion pipeline is: quotient by the symmetrized Lenz arrow, form the
semigroup of compatible order ideals of the quotient, then identify ideals
that contain the same 0-minimal elements.  delta sends s to the class of the
principal downset of its arrow class.
"""

import itertools
from collections import namedtuple

import numpy as np

from . import polycyclic as pc
from .finitesgp import (
    InternalError,
    MulTable,
    TableError,
    _boolean,
    _check_size,
    _distributive,
    _e_star_unitary,
    _first_failure,
    _join_table,
    _meet_semigroup,
    _meet_table,
    _unambiguous,
    idempotent_subtable,
    is_cover,
    is_set_cover,
)

PrincipalFilter = namedtuple("PrincipalFilter", ["generator"])
CompatibleIdeal = namedtuple("CompatibleIdeal", ["generators"])
DClass = namedtuple("DClass", ["support", "representative"])
Completion = namedtuple(
    "Completion", ["D", "delta", "Q", "lam", "F", "ideals", "iota", "xi", "classes"]
)


def ultrafilters(S):
    """Maximal filters of the natural order, one per 0-minimal element.

    In a finite poset every filter is the up-set of its minimum, and the
    maximal ones are generated by the 0-minimal elements.
    """
    return [PrincipalFilter(int(e)) for e in S.zero_minimal()]


def filter_elements(S, f):
    """The members of a principal filter."""
    g = f.generator if isinstance(f, PrincipalFilter) else int(f)
    if g == S.zero:
        raise TableError("zero generates no filter")
    return frozenset(S.above(g))


def is_tight_filter(S, generator):
    """Whether the filter generated by a nonzero element meets every finite
    cover of each of its members.

    A cover avoiding the filter lies inside A_a = {x <= a nonzero with
    generator not below x} for some member a, and enlarging a candidate never
    stops it from covering, so checking each A_a is sound and complete.
    """
    g = int(generator)
    if g == S.zero:
        raise TableError("zero generates no filter")
    for a in S.above(g):
        cand = [x for x in S.below(a) if x != S.zero and not S.leq(g, x)]
        if is_cover(S, a, cand):
            return False
    return True


def _arrow_matrix(S):
    """arr[a, b] decides a -> {b}: every 0-minimal element below a lies
    below b, which on finite meet-semigroups is the same as every nonzero
    x <= a meeting b nontrivially.

    The zero row is left False; arrows out of zero are vacuous and never
    consulted.
    """
    below = S._leq[S.zero_minimal()].astype(np.int32)  # below[i, s]: i-th <= s
    arr = below.T @ below == below.sum(axis=0)[:, None]
    arr[S.zero] = False
    return arr


def lenz_congruence(S):
    """Quotient a finite inverse meet-semigroup by the symmetrized arrow.

    Returns (Q, lam) with lam[s] the class of s.  The class of zero is just
    {zero}, products and meets descend, and the quotient is separative: the
    arrow on Q agrees with its natural order.
    """
    if not _meet_semigroup(S):
        raise TableError("lenz_congruence requires all binary meets to exist")
    arrows = _arrow_matrix(S)
    m = S.m
    sym = arrows & arrows.T
    sym[S.zero, :] = False
    sym[:, S.zero] = False
    sym[S.zero, S.zero] = True
    lam = [-1] * m
    reps = []
    for s in range(m):
        if lam[s] < 0:
            cid = len(reps)
            reps.append(s)
            for x in np.flatnonzero(sym[s]):
                lam[int(x)] = cid
    QT = np.array(lam)[S.T[np.ix_(reps, reps)]]
    fid = S.find_identity()
    Q = MulTable(
        QT,
        zero=lam[S.zero],
        identity=None if fid is None else lam[fid],
        names=[S.name(r) for r in reps],
    )
    return Q, lam


def ideal_members(S, ci):
    """All nonzero elements of the order ideal generated by the antichain."""
    out = set()
    for g in ci.generators:
        out.update(x for x in S.below(g) if x != S.zero)
    return frozenset(out)


def fc_semigroup(S):
    """The compatible order ideals of S under setwise products.

    Returns (F, ideals, iota): F the multiplication table of the ideals,
    ideals[k] the CompatibleIdeal naming the k-th one by its maximal
    antichain, iota[s] the index of the principal downset of s.  Downsets
    drop zero, so the zero ideal is empty.  The product of two ideals is the
    downset of the pairwise products of their generators; each product is
    required to land back in the enumeration.
    """
    m = S.m
    compat = S.compat_matrix()
    down = []
    for a in range(m):
        mask = np.array(S._leq[:, a])
        mask[S.zero] = False
        down.append(mask)

    seen = {}
    work = []

    def register(mask):
        key = frozenset(int(i) for i in np.flatnonzero(mask))
        if key not in seen:
            _check_size(len(seen) + 1, "ideal semigroup")
            seen[key] = mask
            work.append(key)
        return key

    register(np.zeros(m, dtype=bool))
    for a in range(m):
        register(down[a])
    qi = 0
    while qi < len(work):
        mask = seen[work[qi]]
        qi += 1
        for a in range(m):
            if a == S.zero or not (down[a] & ~mask).any():
                continue
            if not compat[np.ix_(mask, down[a])].all():
                continue
            register(mask | down[a])

    keys = sorted(seen, key=lambda k: (len(k), sorted(k)))
    index = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    ideals = []
    for k in keys:
        mask = seen[k]
        gens = []
        for a in sorted(k):
            ups = np.array(S._leq[a, :])
            ups[a] = False
            if not (ups & mask).any():
                gens.append(a)
        ideals.append(CompatibleIdeal(tuple(gens)))
    iota = [index[frozenset(int(i) for i in np.flatnonzero(down[a]))] for a in range(m)]

    FT = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            prod = np.zeros(m, dtype=bool)
            for g in ideals[i].generators:
                for h in ideals[j].generators:
                    prod |= down[S.T[g, h]]
            key = frozenset(int(x) for x in np.flatnonzero(prod))
            if key not in index:
                raise InternalError("product ideal escaped the enumeration")
            FT[i, j] = index[key]
    fid = S.find_identity()
    F = MulTable(
        FT,
        zero=index[frozenset()],
        identity=None if fid is None else iota[fid],
        names=["{" + ",".join(S.name(g) for g in ci.generators) + "}" for ci in ideals],
    )
    return F, ideals, iota


def distributive_completion(S):
    """Distributive completion of a finite inverse meet-semigroup.

    Composes lenz_congruence and fc_semigroup, then identifies ideals with
    the same 0-minimal elements; that support set is a complete class
    invariant, so classes are keyed by it.  Returns the completion table D,
    delta (class of the principal downset of the arrow class of s), and the
    intermediate data.  Support equality is a congruence, D is distributive,
    delta is a 0-restricted homomorphism sending the covers of each element
    to joins, and every class is a join of delta images.
    """
    Q, lam = lenz_congruence(S)
    F, ideals, iota = fc_semigroup(Q)
    zmin = set(Q.zero_minimal())
    members = [ideal_members(Q, ci) for ci in ideals]
    supports = [frozenset(mem & zmin) for mem in members]
    skeys = sorted(set(supports), key=lambda k: (len(k), sorted(k)))
    sindex = {k: i for i, k in enumerate(skeys)}
    xi = [sindex[sp] for sp in supports]
    nD = len(skeys)
    rep = [-1] * nD
    for i, c in enumerate(xi):
        if rep[c] < 0:
            rep[c] = i
    DT = np.array(xi)[F.T[np.ix_(rep, rep)]]
    fidF = F.find_identity()
    D = MulTable(
        DT,
        zero=xi[F.zero],
        identity=None if fidF is None else xi[fidF],
        names=["{" + ",".join(Q.name(t) for t in sorted(k)) + "}" for k in skeys],
    )
    delta = [xi[iota[lam[s]]] for s in range(S.m)]
    # a support is a compatible set of 0-minimal elements, so it is also the
    # member set of the ideal it generates
    member_index = {mem: i for i, mem in enumerate(members)}
    classes = []
    for k in skeys:
        if k not in member_index:
            raise InternalError("no compatible ideal has the support %r" % sorted(k))
        classes.append(DClass(support=k, representative=ideals[member_index[k]]))
    return Completion(D, delta, Q, lam, F, ideals, iota, xi, classes)


def part1_isomorphism(S):
    """Match the idempotents of the completion of S with the completion of
    the idempotent part of S.

    Below an idempotent everything is idempotent and arrows between
    idempotents only mention idempotents, so both sides' classes are keyed by
    the same 0-minimal arrow classes; matching support keys and rechecking
    products gives the isomorphism.  Returns (ok, mapping) with mapping[j]
    the idempotent class of the completion of S matching class j of the
    completion of E(S), or (False, None).
    """
    comp_s = distributive_completion(S)
    E, emb = idempotent_subtable(S)
    comp_e = distributive_completion(E)
    # arrow classes of E line up with arrow classes of S
    trans = {comp_e.lam[e]: comp_s.lam[emb[e]] for e in range(E.m)}
    ED, embD = idempotent_subtable(comp_s.D)
    sup_to_ed = {comp_s.classes[embD[i]].support: i for i in range(ED.m)}
    nE = comp_e.D.m
    if nE != ED.m:
        return False, None
    mapping = []
    for j in range(nE):
        ks = frozenset(trans[t] for t in comp_e.classes[j].support)
        if ks not in sup_to_ed:
            return False, None
        mapping.append(sup_to_ed[ks])
    if sorted(mapping) != list(range(nE)):
        return False, None
    if _hom_defects(comp_e.D, ED, mapping).any():
        return False, None
    if mapping[comp_e.D.zero] != ED.zero:
        return False, None
    return True, mapping


def booleanization_report(S):
    """Flag record for the Booleanization of the idempotent part of S.

    Takes any finite inverse meet-semigroup table; the flags concern its
    semilattice of idempotents E (equal to S when S is a semilattice), while
    part1_iso compares the idempotents of the completion of S with the
    completion of E.  Each flag is computed directly; by the theorems,
    Boolean completion holds iff tight filters are ultrafilters, unital iff
    compactable, and densely embedded iff 0-disjunctive.  The trapping
    condition is vacuous at finite scale (a finite set covers itself) and is
    reported as such.
    """
    E, _ = idempotent_subtable(S)
    ultra = set(f.generator for f in ultrafilters(E))
    tight = set(e for e in E.nonzero() if is_tight_filter(E, e))
    comp_e = distributive_completion(E)
    DE = comp_e.D
    d_boolean = _boolean(DE)
    ident = DE.find_identity()
    atoms = E.zero_minimal()
    compactable = is_set_cover(E, E.nonzero(), atoms)
    # dense embedding into the completion: injective, meets preserved, every
    # nonzero class a join of images (the last holds in every completion)
    injective = len(set(comp_e.delta)) == E.m
    d = np.array(comp_e.delta)
    meets_ok = (_meet_table(DE)[np.ix_(d, d)] == d[_meet_table(E)]).all()
    densely = bool(d_boolean and injective and meets_ok)
    ok_iso, _ = part1_isomorphism(S)
    return {
        "tight_eq_ultra": tight == ultra,
        "D_boolean": d_boolean,
        "unital": ident is not None,
        "compactable": compactable,
        "densely_embedded": densely,
        "part1_iso": ok_iso,
        "trapping": "vacuous",
        "essential_set": sorted(E.name(a) for a in atoms),
        "D_size": DE.m,
    }


def orthogonalize(S, X):
    """Turn a pairwise compatible set into a pairwise orthogonal one with the
    same downset by keeping only the maximal elements.

    Requires an unambiguous E*-unitary table: there compatible elements are
    comparable or orthogonal, which is what makes discarding work.
    """
    if not _unambiguous(S):
        raise TableError("orthogonalize requires an unambiguous table")
    if not _e_star_unitary(S):
        raise TableError("orthogonalize requires an E*-unitary table")
    xs = sorted(set(int(x) for x in X))
    for a, b in itertools.combinations(xs, 2):
        if not S.compatible(a, b):
            raise TableError(
                "not pairwise compatible: %s, %s" % (S.name(a), S.name(b))
            )
    return [a for a in xs if not any(b != a and S.leq(a, b) for b in xs)]


def orthogonalize_poly(X):
    """The discard procedure for polycyclic elements, plain or r-rooted.

    Those monoids are unambiguous and E*-unitary, so compatible pairs are
    comparable or orthogonal and keeping the maximal elements suffices.
    """
    xs = []
    for x in X:
        if x not in xs:
            xs.append(x)
    if not xs:
        return []
    if isinstance(xs[0], pc.ExtPolyElement):
        leq, compat = pc.ext_leq, pc.ext_compatible
    else:
        leq, compat = pc.poly_leq, pc.poly_compatible
    for a, b in itertools.combinations(xs, 2):
        if not compat(a, b):
            raise ValueError("not pairwise compatible: %r, %r" % (a, b))
    return [a for a in xs if not any(b != a and leq(a, b) for b in xs)]


def _hom_defects(A, B, f):
    """defects[a, b]: f(a b) != f(a) f(b), for f listing a B index per A element."""
    f = np.asarray(f)
    return f[A.T] != B.T[f[:, None], f]


def check_universal_property(S, T, theta):
    """Extend theta: S -> T to the completion of S, or say why that fails.

    theta lists one T index per S element.  It must be a zero-preserving
    homomorphism into a distributive T that turns covers into joins.  On
    success returns (True, theta_bar) where theta_bar joins theta over any
    representative ideal of each class; it is checked to be well-defined, a
    homomorphism, join-preserving, and to restrict to theta along delta.
    Uniqueness comes from every class being a join of delta images.  On
    failure returns (False, reason) naming the violated product or cover.
    """
    theta = [int(x) for x in theta]
    if len(theta) != S.m:
        raise TableError("theta must list one image per element")
    if any(not 0 <= x < T.m for x in theta):
        raise TableError("theta image out of range")
    if theta[S.zero] != T.zero:
        return False, "zero is not preserved"
    fail = _first_failure(_hom_defects(S, T, theta))
    if fail is not None:
        return False, "not a homomorphism at (%s, %s)" % tuple(map(S.name, fail[1]))
    if not _distributive(T):
        return False, "target is not distributive"

    for s in range(S.m):
        if T.join_of_set(theta[x] for x in S.minset(s)) != theta[s]:
            return False, "not cover-to-join at %s with cover {%s}" % (
                S.name(s),
                ",".join(S.name(x) for x in sorted(S.minset(s))),
            )

    comp = distributive_completion(S)
    # theta is constant on arrow classes: equal classes have equal 0-minimal
    # lower bounds and theta of an element is the join over those
    theta_q = {}
    for s in range(S.m):
        theta_q.setdefault(comp.lam[s], theta[s])
    values = [None] * comp.D.m
    for i, ci in enumerate(comp.ideals):
        v = T.join_of_set(theta_q[g] for g in ci.generators)
        if v is None:
            return False, "images of {%s} have no join in the target" % ",".join(
                comp.Q.name(g) for g in ci.generators
            )
        c = comp.xi[i]
        if values[c] is None:
            values[c] = v
        elif values[c] != v:
            return False, "not well-defined on class %s" % comp.D.name(c)
    theta_bar = [int(v) for v in values]
    D = comp.D
    fail = _first_failure(_hom_defects(D, T, theta_bar))
    if fail is not None:
        names = tuple(map(D.name, fail[1]))
        return False, "extension is not a homomorphism at (%s, %s)" % names
    tb, JD = np.array(theta_bar), _join_table(D)
    fail = _first_failure((JD >= 0) & (_join_table(T)[tb[:, None], tb] != tb[JD]))
    if fail is not None:
        names = tuple(map(D.name, fail[1]))
        return False, "extension does not preserve the join of (%s, %s)" % names
    for s in range(S.m):
        if theta_bar[comp.delta[s]] != theta[s]:
            return False, "extension does not restrict to theta at %s" % S.name(s)
    return True, theta_bar
