"""Finite Stone duality between Boolean inverse meet-semigroup tables and
their ultrafilter groupoids.

In a finite table every ultrafilter is the up-set of a 0-minimal element, so
the ultrafilter groupoid lives on the 0-minimal elements themselves: the
product of two of them is nonzero exactly when their domain and range idempotents
agree, and it is then 0-minimal again.  Local bisections of that groupoid
multiply setwise and recover the table; tightly closed ideals match unions of
connected components; and a table is one of the symmetric inverse monoids
exactly when it is a fundamental 0-simplifying Boolean inverse meet-monoid.
One labelling, finitesgp._components, finds the components of a groupoid here
and of a table's 0-minimal elements there, for its ideals and 0-simplicity.
"""

import itertools

import numpy as np

from . import finitesgp as F
from . import read_lines
from .finitesgp import InternalError, TableError, _check_size, _first_failure, _hom_defects


# ---------------------------------------------------------------------------
# groupoids

class FiniteGroupoid:
    """A finite groupoid on arrows 0..m-1; identities are a subset of arrows.

    Composition a * b is defined exactly when d(a) = r(b), matching the
    semigroup convention that the right factor acts first."""

    def __init__(self, objects, dom, ran, compose, names=None):
        m = len(dom)
        C = np.full((m, m), -1, dtype=np.int32)
        for (a, b), c in compose.items():
            if not (0 <= a < m and 0 <= b < m and 0 <= c < m):
                raise TableError(
                    "composite %d * %d = %d names an arrow outside 0..%d"
                    % (a, b, c, m - 1)
                )
            C[a, b] = c
        self._set(objects, dom, ran, C, None, names)
        dom = np.array(self.dom, dtype=np.int64)
        ran = np.array(self.ran, dtype=np.int64)
        diag = self._validate(dom, ran)
        if diag is not None:
            raise TableError(diag)
        # b inverts a when a b = r(a) and b a = d(a)
        hits = (C == ran[:, None]) & (C.T == dom[:, None])
        counts = hits.sum(axis=1)
        if (counts != 1).any():
            a = int(np.argmax(counts != 1))
            raise TableError("arrow %d has %d inverses" % (a, counts[a]))
        self.inv = np.nonzero(hits)[1].tolist()  # one hit per row

    def _set(self, objects, dom, ran, C, inv, names):
        """Fields as given: C[a, b] is a * b or -1, inv[a] the inverse of a."""
        self.m = len(dom)
        self.dom = [int(x) for x in dom]
        self.ran = [int(x) for x in ran]
        self.objects = sorted(int(e) for e in objects)
        self.names = list(names) if names is not None else None
        self.C, self.inv = C, inv

    def _validate(self, dom, ran):
        """The first failing groupoid axiom with a witness, or None."""
        m, C = self.m, self.C
        if len(ran) != m:
            return "dom and ran must have equal length"
        objs = np.array(self.objects, dtype=np.int64)
        inside = (objs >= 0) & (objs < m)
        e = np.where(inside, objs, 0)
        own = (dom[e] == objs) & (ran[e] == objs)
        fail = _first_failure(~inside, inside & ~own)
        if fail is not None:
            k, (i,) = fail
            if k == 0:
                return "object %d out of range" % objs[i]
            return "object %d is not its own source and target" % objs[i]
        fail = _first_failure(~np.isin(dom, objs), ~np.isin(ran, objs))
        if fail is not None:
            k, (a,) = fail
            return "%s of arrow %d is not an object" % (("source", "target")[k], a)
        defined = C >= 0
        composable = dom[:, None] == ran[None, :]
        c = np.maximum(C, 0)
        fail = _first_failure(
            defined & ~composable,
            composable & ~defined,
            defined & ((dom[c] != dom[None, :]) | (ran[c] != ran[:, None])),
        )
        if fail is not None:
            k, (a, b) = fail
            text = (
                "composite %d * %d should be undefined",
                "missing composite %d * %d",
                "composite %d * %d has wrong endpoints",
            )
            return text[k] % (a, b)
        idx = np.arange(m)
        bad = (C[idx, dom] != idx) | (C[ran, idx] != idx)
        if bad.any():
            return "identity law fails at arrow %d" % bad.argmax()
        for a in range(m):
            # (a b) c = a (b c) for every composable b and c at once
            bs = np.flatnonzero(defined[a])
            bc = C[bs]
            bad = (bc >= 0) & (C[C[a, bs]] != C[a, np.maximum(bc, 0)])
            if bad.any():
                b, c = np.argwhere(bad)[0]
                return "associativity fails at (%d, %d, %d)" % (a, bs[b], c)
        return None

    def compose(self, a, b):
        """The composite arrow, or None when d(a) != r(b)."""
        v = int(self.C[a, b])
        return None if v < 0 else v

    def inverse(self, a):
        return int(self.inv[a])

    def name(self, a):
        if self.names is not None:
            return self.names[a]
        return "g%d" % a

    # -- serialization ------------------------------------------------------

    def to_text(self):
        lines = ["object %d" % e for e in self.objects]
        objects = frozenset(self.objects)
        for a in range(self.m):
            if a not in objects:
                lines.append("arrow %d %d %d" % (a, self.dom[a], self.ran[a]))
        for a, row in enumerate(self.C):  # one row of composites at a time
            b = np.flatnonzero(row >= 0)
            composites = zip(b.tolist(), row[b].tolist())
            lines.append("\n".join("compose %d %d %d" % (a, x, y) for x, y in composites))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """The groupoid written in text, a str or an open text file (see read_lines)."""
        objects, dom, ran, comp, ids = [], {}, {}, {}, []
        for lineno, raw, line in read_lines(text):
            parts = line.split()
            try:
                args = [int(x) for x in parts[1:]]
            except ValueError:
                raise TableError("line %d: cannot parse %r" % (lineno, raw))
            if (parts[0], len(args)) in (("object", 1), ("arrow", 3)):
                a = args[0]
                if a in dom:
                    raise TableError("line %d: duplicate arrow %d" % (lineno, a))
                if parts[0] == "object":
                    objects.append(a)
                    dom[a] = ran[a] = a
                else:
                    dom[a], ran[a] = args[1], args[2]
            elif parts[0] == "compose" and len(args) == 3:
                if (args[0], args[1]) in comp:
                    raise TableError(
                        "line %d: duplicate composite %d * %d" % (lineno, args[0], args[1])
                    )
                comp[(args[0], args[1])] = args[2]
            else:
                raise TableError("line %d: cannot parse %r" % (lineno, raw))
            ids.append((lineno, args))
        m = len(dom)
        if sorted(dom) != list(range(m)):
            raise TableError("arrow ids must cover 0..%d exactly" % (m - 1))
        for lineno, args in ids:
            bad = [x for x in args if not 0 <= x < m]
            if bad:
                raise TableError(
                    "line %d: arrow %d is not in 0..%d" % (lineno, bad[0], m - 1)
                )
        return cls(
            objects,
            [dom[a] for a in range(m)],
            [ran[a] for a in range(m)],
            comp,
        )


def shape_groupoid(shape):
    """The disjoint union of the groupoids n x H for the (n, H) in shape, H a
    group table with identity 0, checked by the validating constructor.
    The arrow (i,g,j) goes from object j to object i through g; it is
    offset + (i*n + j)*|H| + g, named (i,j) when H is trivial and (i,g,j)
    otherwise, with objects numbered across the shape.  [(k, [[0]])] is
    the pair groupoid on k points, whose bisections are I(k)."""
    if not shape:
        raise ValueError("a shape needs at least one factor")
    objects, dom, ran, comp, names = [], [], [], {}, []
    for n, H in shape:
        if n < 1 or not H or any(len(row) != len(H) for row in H):
            raise ValueError("a factor needs an object and a non-empty square table")
        h, off, o = len(H), len(dom), len(objects)
        objects += [off + (i * n + i) * h for i in range(n)]
        for i, j, g in itertools.product(range(n), range(n), range(h)):
            dom.append(off + (j * n + j) * h)
            ran.append(off + (i * n + i) * h)
            names.append("(%d,%s%d)" % (o + i, "%d," % g if h > 1 else "", o + j))
            for l, x in itertools.product(range(n), range(h)):
                comp[len(dom) - 1, off + (j * n + l) * h + x] = off + (i * n + l) * h + H[g][x]
    return FiniteGroupoid(objects, dom, ran, comp, names)


# ---------------------------------------------------------------------------
# from tables to groupoids

def _groupoid_of_minimals(S):
    """The groupoid carried by the 0-minimal elements of any finite table.

    The product of 0-minimal s and t is nonzero exactly when d(s) = r(t),
    because distinct 0-minimal idempotents multiply to zero, and the nonzero
    product is 0-minimal again; so the groupoid needs no Boolean hypothesis,
    and it is read off the table without re-proving its axioms (the tests
    do).  The arrows go in the order of their Lenz classes, each named by
    its class's first element: on a Boolean table, index order and their
    own names.  Returns the groupoid and the arrow -> element list."""
    lam, reps = S.lenz_classes()
    elems = np.array(sorted(S.zero_minimal(), key=lam.__getitem__), dtype=np.intp)
    pos = np.full(S.m, -2, dtype=np.int32)  # the arrow of s; -1 for zero, -2 for the rest
    pos[S.zero], pos[elems] = -1, np.arange(len(elems))
    dom, ran = pos[S.dom[elems]], pos[S.ran[elems]]
    fail = _first_failure((dom < 0) | (ran < 0))
    if fail is not None:
        raise InternalError("endpoints of %s are not 0-minimal" % S.name(elems[fail[1][0]]))
    C = pos[S.T[np.ix_(elems, elems)]]
    fail = _first_failure((C >= 0) != (dom[:, None] == ran[None, :]), C < -1)
    if fail is not None:
        s, t = elems[list(fail[1])]
        raise InternalError(
            "0-minimal product %s * %s is not composition" % (S.name(s), S.name(t))
        )
    objects = np.flatnonzero(S.is_idem[elems]).tolist()
    names = [S.name(reps[lam[s]]) for s in elems]
    G = FiniteGroupoid.__new__(FiniteGroupoid)
    G._set(objects, dom.tolist(), ran.tolist(), C, pos[S.inv[elems]].tolist(), names)
    return G, elems.tolist()


def _require_boolean_meets(S, what):
    """Refuse S for what, unless it has every meet and is Boolean."""
    if not F._meet_semigroup(S):
        raise TableError("%s needs every meet to exist" % what)
    if not F._boolean(S):
        raise TableError("%s needs a Boolean table" % what)


def ultrafilter_groupoid(S):
    """The groupoid of ultrafilters of a finite Boolean inverse meet-semigroup.

    Arrows are the 0-minimal elements standing for their up-set ultrafilters;
    objects are the 0-minimal idempotents.  The product of two composable
    ultrafilters is the up-set of the table product of their generators."""
    _require_boolean_meets(S, "ultrafilter groupoid")
    G, _ = _groupoid_of_minimals(S)
    return G


# ---------------------------------------------------------------------------
# from groupoids to tables

def local_bisections(G):
    """All local bisections of a finite groupoid, smallest first.

    A subset is a local bisection when no two members share a source and no
    two share a target; this is the same canonical order the bisection
    semigroup table uses.  Their number, counted first, must be within the
    element limit."""
    objects = np.isin(np.arange(G.m), G.objects)
    _check_size(F._bisection_count(*F._components(G.dom, G.ran), objects), "bisection semigroup")
    # a subset of a local bisection is one, so adding the arrows one at a
    # time only ever extends the list: (bisection, sources, targets)
    found = [(frozenset(), frozenset(), frozenset())]
    for a in range(G.m):
        d, r = G.dom[a], G.ran[a]
        for A, ds, rs in found[:]:
            if d not in ds and r not in rs:
                found.append((A | {a}, ds | {d}, rs | {r}))
    return sorted((A for A, _, _ in found), key=lambda A: (len(A), sorted(A)))


def bisection_semigroup(G):
    """All local bisections of G under setwise product, as a table.

    The result is a Boolean inverse meet-semigroup whose natural order is
    inclusion and whose idempotents are exactly the subsets of the object
    set."""
    return _bisection_table(G, local_bisections(G))


def _bisection_table(G, sets):
    """The setwise products of sets, all the local bisections of G in any
    order, as a table named by its sets.

    A bisection is held as the row sending each object to its arrow with
    that source, or -1.  In A B the arrow b meets the arrow of A whose
    source is r(b), so products take two gathers and a lookup in G.C, and
    are found again by their keys: one digit per object, in a mixed radix."""
    m, k = len(sets), len(G.objects)
    opos = {e: o for o, e in enumerate(G.objects)}
    src = np.array([opos[d] for d in G.dom] + [k], dtype=np.intp)  # arrow -1: k
    tgt = np.array([opos[r] for r in G.ran] + [k], dtype=np.intp)
    # an arrow's digit is 1 + its rank among the arrows with its source
    digit = np.array([G.dom[:a].count(G.dom[a]) + 1 for a in range(G.m)] + [0])
    radix = np.bincount(src[:-1], minlength=k) + 1
    weight = np.cumprod(radix) // radix
    X = np.full((m, k + 1), -1, dtype=np.intp)
    for i, A in enumerate(sets):
        X[i, src[list(A)]] = list(A)
    B, C = X[:, :k], np.full((G.m + 1, G.m + 1), -1, dtype=np.intp)
    C[: G.m, : G.m] = G.C
    keys = digit[B] @ weight
    order = np.argsort(keys)
    keys = keys[order]
    table = np.empty((m, m), dtype=np.int32)
    for i in range(0, m, 16):  # 16 rows of A at a time
        prod = digit[C[X[i : i + 16, tgt[B]], B]] @ weight
        pos = np.minimum(np.searchsorted(keys, prod), m - 1)
        if (keys[pos] != prod).any():
            raise InternalError("setwise product escaped the bisections")
        table[i : i + 16] = order[pos]
    zero, identity = sets.index(frozenset()), sets.index(frozenset(G.objects))
    # local bisections always form an inverse monoid; the tests re-prove it
    return F.MulTable(table, zero, identity, _bisection_names(G, sets), check=False)


def _bisection_names(G, sets):
    """Each set of arrows named by the names of its members, in arrow order."""
    return ["{" + ",".join(G.name(a) for a in sorted(A)) + "}" for A in sets]


def _minimal_bisections(S):
    """(G, sets, supports, phi): the groupoid of 0-minimal elements of S,
    its local bisections, each as a set of Lenz classes of S, and phi[s],
    the index of V_s, the 0-minimal elements below s.  V_s is always a local
    bisection: distinct 0-minimal elements below s have distinct domains
    and ranges."""
    label, c = S.minimal_components()  # refuse before the groupoid is built
    _check_size(F._bisection_count(label, c, S.is_idem[S.zero_minimal()]), "bisection semigroup")
    G, elems = _groupoid_of_minimals(S)
    sets = local_bisections(G)
    index = {A: i for i, A in enumerate(sets)}
    # the support matrix with its rows in arrow order: column s is V_s
    supp = S.support_matrix()[np.searchsorted(S.zero_minimal(), elems)]
    v = [frozenset(np.flatnonzero(col).tolist()) for col in supp.T]
    if any(A not in index for A in v):
        raise InternalError("some V_s is not a local bisection")
    lam = S.lenz_classes()[0]
    supports = [frozenset(lam[elems[a]] for a in A) for A in sets]
    return G, sets, supports, [index[A] for A in v]


# ---------------------------------------------------------------------------
# the round trip

def duality_roundtrip(S):
    """Check that s -> V_s = {0-minimal t <= s} is an isomorphism onto the
    bisection semigroup of the ultrafilter groupoid.

    Returns (True, phi) where phi[s] is the index of V_s in the bisection
    table, or (False, witness) naming the first failure.  The round trip
    succeeds exactly on Boolean inverse meet-semigroups."""
    G, sets, _, phi = _minimal_bisections(S)
    B = _bisection_table(G, sets)
    fail = _first_failure(_hom_defects(S, B, phi))
    if fail is not None:
        s, t = fail[1]
        return False, "V_%s V_%s != V_%s" % (
            S.name(s),
            S.name(t),
            S.name(S.mul(s, t)),
        )
    seen = {}
    for s, i in enumerate(phi):
        if i in seen:
            return False, "V_%s = V_%s but the elements differ" % (
                S.name(seen[i]),
                S.name(s),
            )
        seen[i] = s
    if len(phi) != B.m:
        missing = min(set(range(B.m)) - seen.keys())
        return False, "no element has V_s = %s" % B.name(missing)
    return True, phi


# ---------------------------------------------------------------------------
# tightly closed ideals vs invariant subsets

def ideal_correspondence(S):
    """Pair every tightly closed ideal of S with an invariant arrow subset of
    the ultrafilter groupoid; the pairing is an order isomorphism.

    The ideal T goes to O(T), its 0-minimal members; the invariant subset O
    comes back as C(O) = all s whose 0-minimal elements lie in O.  Returns
    the list of (ideal, invariant subset) pairs as frozensets of table
    elements, smallest ideal first."""
    _require_boolean_meets(S, "ideal correspondence")
    minimals = frozenset(S.zero_minimal())
    return [(T, frozenset(T) & minimals) for T in F.tightly_closed_ideals(S)]


# ---------------------------------------------------------------------------
# the symmetric inverse monoid classifier

def classify_symmetric(S):
    """Recognize the finite symmetric inverse monoids.

    Returns (k, phi) with phi an explicit isomorphism onto the canonical
    I(k) table exactly when S is a Boolean inverse meet-monoid that is
    fundamental and 0-simplifying; otherwise (None, reason) naming the first
    property that fails.  phi[s] is read off the conjugation action of s on
    the atom idempotents: the map sending p to q when s e_p s^-1 = e_q,
    ranked among the maps of I(k)."""
    if S.m == 1:
        return None, "zero monoid (0 = 1)"
    if S.find_identity() is None:
        return None, "not a monoid"
    if not F._meet_semigroup(S):
        return None, "not a meet semigroup"
    if not F._boolean(S):
        return None, "not Boolean"
    if not F._fundamental(S):
        return None, "not fundamental"
    if not F.is_zero_simplifying(S):
        return None, "not 0-simplifying"

    atoms = [e for e in S.zero_minimal() if S.is_idem[e]]
    k = len(atoms)
    apos = np.full(S.m, -2)
    apos[atoms], apos[S.zero] = np.arange(k), -1
    action = apos[S.T[S.T[:, atoms], S.inv[:, None]]]  # s e s^-1 as an atom, or -1
    if (action == -2).any():
        raise InternalError("a conjugate of an atom is not an atom")
    # sorted, the rows are I(k)'s maps in its order when they are |I(k)|
    # distinct partial injections; phi[s] is then the rank of row s
    images = np.sort(action, axis=1)
    clash = ((images[:, 1:] == images[:, :-1]) & (images[:, 1:] >= 0)).any(axis=1)
    if clash.any():
        raise InternalError("the atom action of %s is not injective" % S.name(clash.argmax()))
    phi, firsts = F._row_labels(action)
    if len(firsts) != S.m or S.m != F._brandt(k, 1):
        raise InternalError("the atom actions are not the %d maps of I(%d)" % (F._brandt(k, 1), k))
    return k, phi.tolist()
