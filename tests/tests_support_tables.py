"""Corpus of small inverse semigroup tables and groupoids shared across the
test suite, the constructions that build them, and reference routes that the
library's answers are compared against."""

import itertools
from collections import namedtuple
from functools import lru_cache

import numpy as np

from stonedual import duality as D
from stonedual import filtercomp as FC
from stonedual import finitesgp as F


@lru_cache(maxsize=None)
def i_k(k):
    return F.symmetric_inverse_monoid(k)


def chain(c):
    """Semilattice 0 < 1 < ... < c-1 with product = min."""
    table = [[min(i, j) for j in range(c)] for i in range(c)]
    return F.MulTable(table, 0, c - 1, ["c%d" % i for i in range(c)])


def cube(k):
    """Boolean semilattice of subsets of a k-set, product = intersection."""
    m = 1 << k
    table = [[i & j for j in range(m)] for i in range(m)]
    return F.MulTable(table, 0, m - 1, [format(i, "0%db" % k) for i in range(m)])


def diamond():
    """Semilattice 0 < a, b < 1 with a, b incomparable and a * b = 0."""
    Z, A, B, I = 0, 1, 2, 3
    table = [[Z] * 4 for _ in range(4)]
    for x in (Z, A, B, I):
        table[x][I] = x
        table[I][x] = x
        table[x][x] = x
    table[A][B] = table[B][A] = Z
    return F.MulTable(table, Z, I, ["0", "a", "b", "1"])


def adjoined_z2():
    """The two-element group with a zero stuck on: {0, 1, g}, g^2 = 1."""
    table = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    return F.MulTable(table, 0, 1, ["0", "1", "g"])


def group_with_zero(table, names):
    """A finite group with a zero adjoined: table[a][b] multiplies the group
    elements 0..n-1, with identity 0, and group element a is element a + 1
    of the result, after the zero."""
    rows = [[0] * (len(table) + 1)] + [[0] + [c + 1 for c in row] for row in table]
    return F.MulTable(rows, 0, 1, ["0"] + list(names))


def cyclic(n):
    """The group table of Z/n, 0 its identity."""
    return [[(a + b) % n for b in range(n)] for a in range(n)]


S3_PERMS = list(itertools.permutations(range(3)))  # the identity first


def s3():
    """The group table of the permutations of 3 points, composed right first."""
    index = {p: i for i, p in enumerate(S3_PERMS)}
    return [[index[tuple(p[x] for x in q)] for q in S3_PERMS] for p in S3_PERMS]


# the local groups of the shapes the tests build with duality.shape_groupoid
GROUPS = {"1": cyclic(1), **{"Z%d" % n: cyclic(n) for n in range(2, 7)},
          "V4": [[a ^ b for b in range(4)] for a in range(4)], "S3": s3()}


def cyclic_with_zero(n):
    """Z_n^0: the cyclic group g^0..g^(n-1) of order n with a zero."""
    return group_with_zero(cyclic(n), ["g%d" % a for a in range(n)])


def s3_with_zero():
    """The symmetric group on 3 points, as permutation tuples, with a zero."""
    return group_with_zero(s3(), ["".join(map(str, p)) for p in S3_PERMS])


def clifford_witness():
    """{0 < e} glued under Z/2 = {1, g}: ge = eg = e, g^2 = 1.

    The only 0-minimal element is e, so the non-idempotent g collapses with
    e = g ^ d(g) in the separative quotient: the standard witness that the
    quotient map can be non-injective off the idempotents."""
    Z, E, I, G = 0, 1, 2, 3
    table = [
        [Z, Z, Z, Z],
        [Z, E, E, E],
        [Z, E, I, G],
        [Z, E, G, I],
    ]
    return F.MulTable(table, Z, I, ["0", "e", "1", "g"])


def no_meet():
    """Smallest fixture where a binary meet is missing.

    Clifford semigroup over the diamond 0 < u, v < top with group Z/2 = {q, g}
    sitting at the top and trivial groups elsewhere. The common lower bounds
    of q and g are {0, u, v}, with u and v both maximal, so q ^ g does not
    exist."""
    Z, U, V, Q, G = 0, 1, 2, 3, 4
    table = [
        [Z, Z, Z, Z, Z],
        [Z, U, Z, U, U],
        [Z, Z, V, V, V],
        [Z, U, V, Q, G],
        [Z, U, V, G, Q],
    ]
    return F.MulTable(table, Z, Q, ["0", "u", "v", "q", "g"])


def m3():
    """The lattice M3 under meet: 0 < a, b, c < 1, pairwise meets 0.  Every
    pair has a join, and meets do not distribute over them."""
    table = [[0] * 5 for _ in range(5)]
    for x in range(5):
        table[x][x] = table[x][4] = table[4][x] = x
    return F.MulTable(table, 0, 4, ["0", "a", "b", "c", "1"])


def n5():
    """The lattice N5 under meet: 0 < a < b < 1 and 0 < c < 1."""
    table = m3().T.copy()
    table[1, 2] = table[2, 1] = 1
    return F.MulTable(table, 0, 4, ["0", "a", "b", "c", "1"])


def trivial_monoid():
    """Two elements 0 < 1; isomorphic to I(1) but with bare names."""
    return F.MulTable([[0, 0], [0, 1]], 0, 1, ["0", "1"])


def zero_direct_union(S, T):
    """Glue the zeros of two tables; everything across the seam multiplies to 0."""
    m = (S.m - 1) + (T.m - 1) + 1
    F._check_size(m, "zero direct union")
    table = np.zeros((m, m), dtype=np.int32)
    names = ["0"]
    for X, tag in ((S, "L:"), (T, "R:")):
        nz = np.array(X.nonzero(), dtype=np.intp)
        new = np.zeros(X.m, dtype=np.int32)   # zero stays 0
        new[nz] = len(names) + np.arange(len(nz))
        table[np.ix_(new[nz], new[nz])] = new[X.T[np.ix_(nz, nz)]]
        names += [tag + X.name(s) for s in nz]
    return F.MulTable(table, 0, None, names)


def direct_product(S, T):
    m = S.m * T.m
    F._check_size(m, "direct product")
    TS, TT = S.T, T.T
    mT = T.m
    # index (a, b) -> a * mT + b
    a1, b1 = np.divmod(np.arange(m), mT)
    pa = TS[np.ix_(a1, a1)]
    pb = TT[np.ix_(b1, b1)]
    table = pa * mT + pb
    zero = S.zero * mT + T.zero
    identity = None
    eS, eT = S.find_identity(), T.find_identity()
    if eS is not None and eT is not None:
        identity = eS * mT + eT
    names = ["(%s,%s)" % (S.name(a), T.name(b)) for a in range(S.m) for b in range(T.m)]
    return F.MulTable(table, zero, identity, names)


def rees_b_r(M, r):
    """r x r matrix variant over an inverse monoid with zero: triples (i|m|j)
    with (i|m|j)(k|n|l) = (i|mn|l) when j = k and mn is nonzero, else 0."""
    if M.find_identity() is None:
        raise F.TableError("base must be a monoid")
    nz = np.array(M.nonzero(), dtype=np.intp)
    n = len(nz)
    m = 1 + r * r * n
    F._check_size(m, "matrix variant")
    rank = np.zeros(M.m, dtype=np.intp)
    rank[nz] = np.arange(n)
    # element 1 + (i r + j) n + rank[s] is (i+1|s|j+1)
    e = np.arange(m - 1)
    i, j, s = e // (r * n), e // n % r, nz[e % n]
    p = M.T[np.ix_(s, s)]
    table = np.zeros((m, m), dtype=np.int32)
    table[1:, 1:] = np.where(
        (j[:, None] == i) & (p != M.zero), 1 + (i[:, None] * r + j) * n + rank[p], 0
    )
    names = ["0"] + ["(%d|%s|%d)" % (a + 1, M.name(t), b + 1) for a, b, t in zip(i, j, s)]
    return F.MulTable(table, 0, None, names)


def b2():
    return rees_b_r(trivial_monoid(), 2)


def b3():
    return rees_b_r(trivial_monoid(), 3)


def b2_z2():
    return rees_b_r(adjoined_z2(), 2)


def union_of_chains():
    return zero_direct_union(chain(2), chain(2))


def i2_x_i2():
    return direct_product(i_k(2), i_k(2))


def meet_corpus():
    """Inverse meet-semigroups with <= 20 elements used by completion tests."""
    return {
        "I(1)": i_k(1),
        "I(2)": i_k(2),
        "chain2": chain(2),
        "chain3": chain(3),
        "chain4": chain(4),
        "cube2": cube(2),
        "cube3": cube(3),
        "diamond": diamond(),
        "adjoined_z2": adjoined_z2(),
        "clifford_witness": clifford_witness(),
        "B2": b2(),
        "B3": b3(),
        "B2(Z2)": b2_z2(),
        "union_of_chains": union_of_chains(),
        "I(1)xI(2)": direct_product(i_k(1), i_k(2)),
    }


def boolean_corpus():
    """Tables whose `boolean` predicate holds."""
    out = {
        "I(1)": i_k(1),
        "I(2)": i_k(2),
        "I(3)": i_k(3),
        "chain2": chain(2),
        "cube2": cube(2),
        "cube3": cube(3),
        "adjoined_z2": adjoined_z2(),
        "I(2)xI(2)": i2_x_i2(),
    }
    return out


def principal_congruence(S, a, b):
    """Class ids of the smallest congruence merging a and b."""
    parent = list(range(S.m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = [(a, b)]
    T = S.T
    while work:
        x, y = work.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[rx] = ry
        for s in range(S.m):
            work.append((int(T[s, x]), int(T[s, y])))
            work.append((int(T[x, s]), int(T[y, s])))
    reps = {}
    out = [0] * S.m
    for s in range(S.m):
        r = find(s)
        if r not in reps:
            reps[r] = len(reps)
        out[s] = reps[r]
    return out


# ---------------------------------------------------------------------------
# groupoids

def components(G):
    """Connected components as sorted arrow lists, by finitesgp's labelling."""
    label, c = F._components(G.dom, G.ran)
    return [np.flatnonzero(label == k).tolist() for k in range(c)]


def is_principal(G):
    """No nontrivial local groups: d(a) = r(a) forces a to be an identity."""
    objects = frozenset(G.objects)
    return all(G.dom[a] != G.ran[a] or a in objects for a in range(G.m))


# ---------------------------------------------------------------------------
# the compatible-ideal route to the distributive completion

CompatibleIdeal = namedtuple("CompatibleIdeal", ["generators"])


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
            F._check_size(len(seen) + 1, "ideal semigroup")
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
            assert key in index, "product ideal escaped the enumeration"
            FT[i, j] = index[key]
    fid = S.find_identity()
    Fm = F.MulTable(
        FT,
        zero=index[frozenset()],
        identity=None if fid is None else iota[fid],
        names=["{" + ",".join(S.name(g) for g in ci.generators) + "}" for ci in ideals],
    )
    return Fm, ideals, iota


def completion_by_ideals(Q):
    """The distributive completion of a Lenz quotient Q by way of F.

    F is the semigroup of compatible order ideals of Q; identifying ideals
    with the same 0-minimal elements (their support) gives D.  Returns
    (D, xi, iota, F, ideals): xi[i] is the class of the i-th ideal and
    iota[q] the ideal of the principal downset of q, so q goes to the class
    xi[iota[q]].  The reference for filtercomp.distributive_completion,
    which builds D from the local bisections of the 0-minimal elements.
    """
    Fm, ideals, iota = fc_semigroup(Q)
    zmin = set(Q.zero_minimal())
    supports = [ideal_members(Q, ci) & zmin for ci in ideals]
    skeys = sorted(set(supports), key=lambda k: (len(k), sorted(k)))
    sindex = {k: i for i, k in enumerate(skeys)}
    xi = [sindex[sp] for sp in supports]
    rep = [-1] * len(skeys)
    for i, c in enumerate(xi):
        if rep[c] < 0:
            rep[c] = i
    DT = np.array(xi)[Fm.T[np.ix_(rep, rep)]]
    fidF = Fm.find_identity()
    D = F.MulTable(
        DT,
        zero=xi[Fm.zero],
        identity=None if fidF is None else xi[fidF],
        names=["{" + ",".join(Q.name(t) for t in sorted(k)) + "}" for k in skeys],
    )
    return D, xi, iota, Fm, ideals


# ---------------------------------------------------------------------------
# table functions that only tests call: validation as a diagnostic string,
# the arrow and covers by supports, the Lenz quotient, orthogonalization,
# filters and the principality criterion

def validate(table, zero, identity=None):
    """Return None if the table is an inverse semigroup with absorbing zero,
    else a diagnostic string naming the first failing axiom and a witness."""
    try:
        F._check_axioms(table, zero, identity)
    except F.TableError as exc:
        return str(exc)
    return None


def arrow_minset(S, a, B):
    """a -> B via 0-minimal elements: every 0-minimal element below a lies
    below some b in B.  On finite meet-semigroups this is the same as every
    nonzero x <= a meeting some b, and it needs no meets to exist."""
    if a == S.zero:
        raise F.TableError("arrow source must be nonzero")
    supp = S.support_matrix()
    return not (supp[:, a] & ~supp[:, list(B)].any(axis=1)).any()


def is_cover(S, a, A):
    A = list(A)
    if not all(S.leq(x, a) for x in A):
        return False
    return arrow_minset(S, a, A)


def lenz_congruence(S):
    """Quotient a finite inverse meet-semigroup by the symmetrized arrow.

    Returns (Q, lam) with lam[s] the class of s.  The class of zero is just
    {zero}, products and meets descend, and the quotient is separative: the
    arrow on Q agrees with its natural order.
    """
    if not F._meet_semigroup(S):
        raise F.TableError("the Lenz quotient needs every meet to exist")
    lam, reps = S.lenz_classes()
    QT = np.array(lam, dtype=np.int32)[S.T[np.ix_(reps, reps)]]
    fid = S.find_identity()
    identity = None if fid is None else lam[fid]
    # a homomorphic image of an inverse semigroup is one; the tests re-prove it
    return F.MulTable(QT, lam[S.zero], identity, [S.name(r) for r in reps], check=False), lam


def orthogonalize(S, X):
    """Turn a pairwise compatible set into a pairwise orthogonal one with the
    same downset by keeping only the maximal elements.

    Requires an unambiguous E*-unitary table: there compatible elements are
    comparable or orthogonal, which is what makes discarding work.
    """
    if not F._unambiguous(S):
        raise F.TableError("orthogonalize requires an unambiguous table")
    if not F._e_star_unitary(S):
        raise F.TableError("orthogonalize requires an E*-unitary table")
    xs = sorted(set(int(x) for x in X))
    for a, b in itertools.combinations(xs, 2):
        if not S.compatible(a, b):
            raise F.TableError(
                "not pairwise compatible: %s, %s" % (S.name(a), S.name(b))
            )
    return [a for a in xs if not any(b != a and S.leq(a, b) for b in xs)]


def filter_elements(S, f):
    """The members of a principal filter."""
    g = f.generator if isinstance(f, FC.PrincipalFilter) else int(f)
    if g == S.zero:
        raise F.TableError("zero generates no filter")
    return frozenset(S.above(g))


def _up_and_fc(S, up):
    """The up-set of an ultrafilter and its F^c, given the ultrafilter as the
    row of the support matrix at its atom."""
    in_f = up & S.is_idem                  # F: the idempotents above the atom
    filt, every = np.flatnonzero(in_f), np.arange(S.m)[:, None]
    conj = S.T[S.T[:, filt], S.inv[:, None]]           # s f s^-1
    back = S.T[S.T[S.inv][:, filt], every]             # s^-1 f s
    fc = in_f[S.dom] & in_f[S.ran] & in_f[conj].all(axis=1) & in_f[back].all(axis=1)
    return set(np.flatnonzero(up).tolist()), set(np.flatnonzero(fc).tolist())


def principal_criterion(S):
    """Whether F^up = F^c for every ultrafilter F of the idempotent part.

    F^c collects the elements whose domain and range lie in F and whose
    conjugation preserves F; it is the largest inverse subsemigroup with
    idempotent part F, and it always contains the up-set of F.  On a finite
    Boolean table the criterion, triviality of the local groups of the
    ultrafilter groupoid, and being fundamental all agree."""
    D._require_boolean_meets(S, "principal criterion")
    for e, row in zip(S.zero_minimal(), S.support_matrix()):
        if S.is_idem[e]:
            up, fc = _up_and_fc(S, row)
            if up != fc:
                return False
    return True


# ---------------------------------------------------------------------------
# the routes the library replaced, kept as references for tests/conftest.py


def is_set_cover(S, A, Z):
    """Z covers the set A: every nonzero member of A meets some member of Z."""
    Z = [z for z in Z if z != S.zero]
    for a in A:
        if a == S.zero:
            continue
        hit = False
        for z in Z:
            mt = S.meet(a, z)
            if mt is None:
                raise F.TableError("meet of %d and %d does not exist" % (a, z))
            if mt != S.zero:
                hit = True
                break
        if not hit:
            return False
    return True


def arrow_enum(S, a, B):
    """a -> B by direct enumeration: every nonzero x <= a meets some b in B,
    the meet-based reference for arrow_minset.

    Requires all the meets x ^ b to exist (raises otherwise)."""
    if a == S.zero:
        raise F.TableError("arrow source must be nonzero")
    return is_set_cover(S, S.below(a), B)


def tight_by_covers(S, generator):
    """filtercomp.is_tight_filter by its definition.

    A cover avoiding the filter lies inside A_a = {x <= a nonzero with
    generator not below x} for some member a, and enlarging a candidate never
    stops it from covering, so checking each A_a is sound and complete.
    """
    g = int(generator)
    for a in S.above(g):
        cand = [x for x in S.below(a) if x != S.zero and not S.leq(g, x)]
        if is_cover(S, a, cand):
            return False
    return True


def booleanization_by_definition(S):
    """The flags of filtercomp.booleanization_report, each computed from its
    definition on the completion of the idempotent part E of S."""
    E, _ = F.idempotent_subtable(S)
    ultra = set(f.generator for f in FC.ultrafilters(E))
    tight = set(e for e in E.nonzero() if tight_by_covers(E, e))
    comp_e = FC.distributive_completion(E)
    DE = comp_e.D
    d_boolean = F._boolean(DE)
    atoms = E.zero_minimal()
    # dense embedding into the completion: injective, meets preserved, every
    # nonzero class a join of images (the last holds in every completion)
    injective = len(set(comp_e.delta)) == E.m
    d = np.array(comp_e.delta)
    meets_ok = (meet_table_by_counting(DE)[np.ix_(d, d)] == d[meet_table_by_counting(E)]).all()
    return {
        "tight_eq_ultra": tight == ultra,
        "D_boolean": d_boolean,
        "unital": DE.find_identity() is not None,
        "compactable": is_set_cover(E, E.nonzero(), atoms),
        "densely_embedded": bool(d_boolean and injective and meets_ok),
        "part1_iso": FC.part1_isomorphism(S)[0],
        "trapping": "vacuous",
        "essential_set": sorted(E.name(a) for a in atoms),
        "D_size": DE.m,
    }


def generators_by_index_order(arr):
    """The greedy generating set scanned in index order, closed one element
    at a time with the table's own product."""
    m = len(arr)
    in_cl = np.zeros(m, dtype=bool)
    gens = []
    for s in range(m):
        if in_cl[s]:
            continue
        gens.append(s)
        stack = [s]
        in_cl[s] = True
        while stack:
            x = stack.pop()
            members = np.flatnonzero(in_cl)
            prods = np.unique(np.concatenate([arr[x, members], arr[members, x]]))
            for p in prods:
                if not in_cl[p]:
                    in_cl[p] = True
                    stack.append(int(p))
    return gens


def validate_by_index_order(table, zero, identity=None):
    """validate with associativity tested against every generator
    of the index-order scan."""
    m = len(table)
    if m == 0:
        return "empty table"
    arr = np.asarray(table, dtype=np.int32)
    if arr.shape != (m, m):
        return "not square: shape %r" % (arr.shape,)
    if arr.min() < 0 or arr.max() >= m:
        bad = np.argwhere((arr < 0) | (arr >= m))[0]
        return "entry out of range at (%d, %d)" % (bad[0], bad[1])
    if not 0 <= zero < m:
        return "zero index %d out of range" % zero
    if not (arr[zero, :] == zero).all() or not (arr[:, zero] == zero).all():
        s = int(np.argmax((arr[zero, :] != zero) | (arr[:, zero] != zero)))
        return "zero not absorbing: witness s=%d" % s
    if identity is not None:
        if not 0 <= identity < m:
            return "identity index %d out of range" % identity
        idx = np.arange(m)
        if not (arr[identity, :] == idx).all() or not (arr[:, identity] == idx).all():
            s = int(np.argmax((arr[identity, :] != idx) | (arr[:, identity] != idx)))
            return "identity fails: witness s=%d" % s
    for g in generators_by_index_order(arr):
        left = arr[arr[:, g], :]
        right = arr[:, arr[g, :]]
        if not (left == right).all():
            x, y = np.argwhere(left != right)[0]
            return "not associative: witness (%d, %d, %d)" % (x, g, y)
    sts = arr[arr, np.arange(m)[:, None]]
    cond = sts == np.arange(m)[:, None]
    pair = cond & cond.T
    counts = pair.sum(axis=1)
    if (counts == 0).any():
        return "no inverse: element %d" % int(np.argmax(counts == 0))
    if (counts > 1).any():
        s = int(np.argmax(counts > 1))
        ts = np.flatnonzero(pair[s])[:2]
        return "multiple inverses: element %d (%d and %d)" % (s, ts[0], ts[1])
    idems = np.flatnonzero(arr[np.arange(m), np.arange(m)] == np.arange(m))
    sub = arr[np.ix_(idems, idems)]
    if not (sub == sub.T).all():
        i, j = np.argwhere(sub != sub.T)[0]
        return "idempotents do not commute: witness (%d, %d)" % (idems[i], idems[j])
    return None


def generated(arr, gens):
    """The number of elements that are bracketed products of gens."""
    in_cl = np.zeros(len(arr), dtype=bool)
    in_cl[list(gens)] = True
    while True:
        members = np.flatnonzero(in_cl)
        grown = in_cl.copy()
        grown[arr[np.ix_(members, members)]] = True
        if (grown == in_cl).all():
            return int(in_cl.sum())
        in_cl = grown


def distributive_for_every_c(S):
    """finitesgp._distributive with the factor c running over all of S."""
    T = S.T
    comp = S.compat_matrix()
    J = F._join_table(S)
    for a in range(S.m):
        bs = np.flatnonzero(comp[a])
        js = J[a, bs]
        if (js < 0).any():
            return False
        if (J[T[:, a, None], T[:, bs]] != T[:, js]).any():
            return False
        if (J[T[a, :, None], T[bs].T] != T[js].T).any():
            return False
    return True


def complemented(S):
    """Each idempotent e <= f has a complement below the idempotent f: some
    idempotent g <= f with g e = 0 and g v e = f."""
    E = np.array(S.E, dtype=np.intp)
    J = F._join_table(S)
    for f in E:
        lo = E[S._leq[E, f]]
        cut = np.ix_(lo, lo)
        complement = (S.T[cut] == S.zero) & (J[cut] == f)  # complement[g, e]
        if not complement.any(axis=0).all():
            return False
    return True


def boolean_by_definition(S):
    """finitesgp._boolean by its definition: distributive, with relative
    complements of idempotents; it builds the join table and the compatible
    pairs, where the library counts local bisections."""
    return F._distributive(S) and complemented(S)


def ideals_from_every_element(S):
    """all_ideals from the principal ideal of every element."""
    gens = sorted({principal_ideal(S, s) for s in range(S.m)}, key=sorted)
    ideals = set(gens)
    frontier = list(gens)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            u = cur | g
            if u not in ideals:
                ideals.add(u)
                frontier.append(u)
    return sorted(ideals, key=lambda I: (len(I), sorted(I)))


def bisection_table_by_sets(G, sets):
    """duality._bisection_table with each setwise product built as a set."""
    index = {A: i for i, A in enumerate(sets)}
    m = len(sets)
    table = np.zeros((m, m), dtype=np.int32)
    for i, A in enumerate(sets):
        by_source = {G.dom[a]: a for a in A}
        # b meets the arrow of A whose source is b's target, if A has one
        after = {b: int(G.C[by_source[r], b]) for b, r in enumerate(G.ran) if r in by_source}
        meets = frozenset(after)
        row = [index.get(frozenset(map(after.__getitem__, B & meets))) for B in sets]
        assert None not in row, "setwise product escaped the bisections"
        table[i] = row
    zero = index[frozenset()]
    identity = index[frozenset(G.objects)]
    names = ["{" + ",".join(G.name(a) for a in sorted(A)) + "}" for A in sets]
    return F.MulTable(table, zero, identity, names, check=False)


# ---------------------------------------------------------------------------
# meets, ideals, 0-simplicity and 0-disjunctivity by their definitions: the
# library decides them from phi, the 0-minimal components and the supports


def meet_table_by_counting(S):
    """out[s, t] = the meet of s and t, or -1, by the counting rule: z is the
    meet when it lies below s and t and as many elements lie below z as
    below both."""
    return F._bound_table(S._leq, S._below_count)


def principal_ideal(S, s):
    left = np.zeros(S.m, dtype=bool)
    left[S.T[:, s]] = True  # S s
    mask = np.zeros(S.m, dtype=bool)
    mask[S.T[left]] = True  # (S s) S
    return frozenset(np.flatnonzero(mask).tolist())


def all_ideals(S):
    """Every ideal is a union of principal ideals; close under union.  S s S
    = S s s^-1 S, so the principal ideals are those of the idempotents."""
    gens = sorted({principal_ideal(S, e) for e in S.E}, key=sorted)
    ideals = set(gens)
    frontier = list(gens)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            u = cur | g
            if u not in ideals:
                ideals.add(u)
                frontier.append(u)
    return sorted(ideals, key=lambda I: (len(I), sorted(I)))


def is_tightly_closed_ideal(S, ideal):
    """Closed under covers: if the part of the ideal under s covers s then s
    is already inside. Equivalently every outside s has a 0-minimal element
    below it outside the ideal."""
    inside = np.zeros(S.m, dtype=bool)
    inside[list(ideal) + [S.zero]] = True
    supp = S.support_matrix()
    covered = ~(supp & ~inside[S.zero_minimal()][:, None]).any(axis=0)
    return not (covered & ~inside).any()


def tightly_closed_ideals_by_enumeration(S):
    """finitesgp.tightly_closed_ideals by filtering every ideal."""
    return [I for I in all_ideals(S) if is_tightly_closed_ideal(S, I)]


def zero_simplifying_by_preorder(S):
    """finitesgp.is_zero_simplifying through the witnessed preorder on
    nonzero idempotents (e below f iff the ranges of every element with
    domain under f jointly arrow e): S is 0-simplifying exactly when that
    preorder is universal."""
    E = [e for e in S.E if e != S.zero]
    supp = S.support_matrix()
    below = supp[:, E]  # below[i, e]: the i-th 0-minimal element <= e
    for f in E:
        # the 0-minimal elements under the ranges of the x with d(x) <= f
        covered = supp[:, S.ran[S._leq[S.dom, f]]].any(axis=1)
        if (below & ~covered[:, None]).any():
            return False
    return True


def zero_disjunctive_by_idempotents(S):
    """finitesgp._zero_disjunctive by its definition: each idempotent e < f,
    both nonzero, is missed by some nonzero idempotent g <= f: g e = 0."""
    E = np.array([e for e in S.E if e != S.zero], dtype=np.intp)
    for f in E:
        lo = E[S._leq[E, f]]
        missed = S.T[np.ix_(lo, lo)] == S.zero      # missed[g, e]: g e = 0
        if not missed[:, lo != f].any(axis=0).all():
            return False
    return True


# ---------------------------------------------------------------------------
# seeded random corpora: inverse subsemigroups of I(k), and Clifford
# semigroups over random semilattices


def random_inverse_subsemigroup(S, rng, gens=3):
    """The inverse subsemigroup of S (with zero) generated by a few random
    elements, as its own table."""
    inside = np.zeros(S.m, dtype=bool)
    inside[[S.zero] + [rng.randrange(S.m) for _ in range(gens)]] = True
    while True:
        members = np.flatnonzero(inside)
        grown = inside.copy()
        grown[S.inv[members]] = True
        grown[S.T[np.ix_(members, members)]] = True
        if (grown == inside).all():
            return F.subtable(S, members.tolist())[0]
        inside = grown


def random_clifford(rng, points=4):
    """A Clifford semigroup: the group Z/2 = {e, g_e} sits at each idempotent
    e of an up-set U of a random semilattice of subsets of `points` points
    (closed under intersection, with the empty set as zero), and the trivial
    group elsewhere; (e, a)(f, b) = (e f, a + b), with the sign dropped
    below U.  Meets can fail: g_e and e have no meet when the idempotents
    below e outside U have no greatest member."""
    sets = {0} | {rng.randrange(1, 1 << points) for _ in range(rng.randrange(1, 6))}
    while True:
        closed = sets | {a & b for a in sets for b in sets}
        if closed == sets:
            break
        sets = closed
    idems = sorted(sets)
    # the up-set of one or two nonzero idempotents; the zero stays absorbing
    up = {rng.choice(idems[1:]) for _ in range(rng.randrange(1, 3))}
    up = {e for e in idems if any(u & e == u for u in up)}
    elems = [(e, 0) for e in idems] + [(e, 1) for e in idems if e in up]
    index = {x: i for i, x in enumerate(elems)}

    def mul(x, y):
        e = x[0] & y[0]
        return index[(e, (x[1] + y[1]) % 2 if e in up else 0)]

    table = [[mul(x, y) for y in elems] for x in elems]
    names = ["%s%d" % ("g" if a else "e", e) for e, a in elems]
    return F.MulTable(table, index[(0, 0)], None, names)
