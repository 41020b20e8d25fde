"""Corpus of small inverse semigroup tables shared across the test suite."""

from functools import lru_cache

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
