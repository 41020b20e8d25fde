"""Corpus of small inverse semigroup tables shared across the test suite,
and reference routes that the library's answers are compared against."""

from collections import namedtuple
from functools import lru_cache

import numpy as np

from stonedual import finitesgp as F


@lru_cache(maxsize=None)
def i_k(k):
    return F.symmetric_inverse_monoid(k)


def relabel(S, rng):
    """The same table under a random permutation of the element ids."""
    perm = list(range(S.m))
    rng.shuffle(perm)
    inv = [0] * S.m
    for i, p in enumerate(perm):
        inv[p] = i
    table = [[inv[S.mul(perm[i], perm[j])] for j in range(S.m)] for i in range(S.m)]
    names = [S.name(perm[i]) for i in range(S.m)]
    return F.MulTable(table, inv[S.zero], None, names)


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


def trivial_monoid():
    """Two elements 0 < 1; isomorphic to I(1) but with bare names."""
    return F.MulTable([[0, 0], [0, 1]], 0, 1, ["0", "1"])


def b2():
    return F.rees_b_r(trivial_monoid(), 2)


def b3():
    return F.rees_b_r(trivial_monoid(), 3)


def b2_z2():
    return F.rees_b_r(adjoined_z2(), 2)


def union_of_chains():
    return F.zero_direct_union(chain(2), chain(2))


def i2_x_i2():
    return F.direct_product(i_k(2), i_k(2))


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
        "I(1)xI(2)": F.direct_product(i_k(1), i_k(2)),
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
