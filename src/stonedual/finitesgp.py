"""Finite inverse semigroups with zero as multiplication tables.

Elements are indices 0..m-1. Construction validates the full axiom set
(associativity, unique inverses, absorbing zero; idempotents then commute) and
reports the first failing axiom with a witness. Order, meets, joins and the
standard predicates are derived on demand.  Two vectors carry meets and ideals:
phi, the greatest idempotent below each element (every meet exists exactly
when phi is total, and then s ^ t = phi(s t^-1) t), and the components of the
0-minimal elements' groupoid, whose unions give the tightly closed ideals
and whose shapes count the local bisections that decide Booleanness.

Table text format:
    elements <m> zero <z> [identity <e>]
    <m rows of m indices>
    name <i> <label>     (optional, after the header, one per element)
Lines may carry '#' comments. A line that does not fit raises TableError
naming the line.

The m x m kernels of construction step through BLOCK rows at a time, so
their scratch is O(BLOCK m) beside the table.
"""

import itertools
import math
import os

import numpy as np

from . import InternalError  # noqa: F401  (re-exported for the table layers)
from . import read_lines

INT32_MAX = np.iinfo(np.int32).max
BLOCK = 64          # rows per step of an m x m kernel


class TableError(ValueError):
    """Raised when a table fails validation or a precondition."""


class SizeLimitError(ValueError):
    """Raised when an input exceeds the configured element limit."""


def max_elements():
    raw = os.environ.get("STONEDUAL_MAX_ELEMENTS", "2000")
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise ValueError("STONEDUAL_MAX_ELEMENTS takes a non-negative integer, not %r" % raw)


def _check_size(m, what="table"):
    lim = max_elements()
    if m > lim:
        # a count of 19 or more digits is shown by its order of magnitude
        count = "%d" % m if m < 10**18 else "more than 10^%d" % (len(str(m - 1)) - 1)
        raise SizeLimitError(
            "%s has %s elements, above the limit %d (set STONEDUAL_MAX_ELEMENTS to raise)"
            % (what, count, lim)
        )


def _first_failure(*masks):
    """(k, index) for the first index, in row-major order, at which one of the
    equally shaped masks holds, with k the first mask holding there; or None."""
    hit = np.logical_or.reduce(masks)
    if not hit.any():
        return None
    at = tuple(np.argwhere(hit)[0])
    return next(k for k, mask in enumerate(masks) if mask[at]), at


def _hom_defects(A, B, f):
    """defects[a, b]: f(a b) != f(a) f(b), for f listing a B index per A element."""
    f = np.asarray(f)
    return np.take(f, A.T) != np.take(np.take(B.T, f, axis=0), f, axis=1)


def _semigroup_generators(arr, widest=True):
    """Greedy generating set: closure is computed with the table's own product,
    so every member of the closure is some bracketed product of generators.

    Candidates are tried widest row first (most distinct entries, then lowest
    index), which keeps few generators; widest=False tries them in index
    order."""
    m = len(arr)
    order = range(m)
    if widest:
        width = np.empty(m, dtype=np.int64)
        for lo in range(0, m, BLOCK):
            srt = np.sort(arr[lo:lo + BLOCK], axis=1)
            width[lo:lo + BLOCK] = (srt[:, 1:] != srt[:, :-1]).sum(axis=1)
        order = np.argsort(-width, kind="stable").tolist()
    in_cl = np.zeros(m, dtype=bool)
    gens = []
    for s in order:
        if in_cl[s]:
            continue
        gens.append(s)
        new = np.array([s])
        in_cl[s] = True
        while new.size:
            # each new member times everything in the closure so far, both ways
            members = np.flatnonzero(in_cl)
            hit = np.zeros(m, dtype=bool)
            for lo in range(0, len(new), BLOCK):
                part = new[lo:lo + BLOCK]
                hit[arr[np.ix_(part, members)]] = True
                hit[arr[np.ix_(members, part)]] = True
            new = np.flatnonzero(hit & ~in_cl)
            in_cl[new] = True
    return gens


def _associativity_witness(arr, gens):
    """The first (x, g, y) with (x g) y != x (g y), g running over gens and
    then (x, y) in row-major order."""
    for g in gens:
        for lo in range(0, len(arr), BLOCK):
            rows = arr[lo:lo + BLOCK]
            left = np.take(arr, rows[:, g], axis=0)    # (x g) y
            right = np.take(rows, arr[g, :], axis=1)   # x (g y)
            if not np.array_equal(left, right):
                x, y = np.argwhere(left != right)[0]
                return lo + x, g, y
    return None


def _inverses(arr):
    """pair[s, t]: s t s = s and t s t = t, and inv[s], the first such t."""
    m = len(arr)
    pair = np.empty((m, m), dtype=bool)
    for lo in range(0, m, BLOCK):
        s = np.arange(lo, min(lo + BLOCK, m))[:, None]
        pair[lo:lo + BLOCK] = arr[arr[lo:lo + BLOCK], s] == s    # (s t) s == s
    # plus (t s) t == t; in place, since a block already done holds cond & cond.T
    for lo in range(0, m, BLOCK):
        pair[lo:lo + BLOCK] &= pair[:, lo:lo + BLOCK].T
    return pair, pair.argmax(axis=1).astype(np.int32)


def _check_axioms(table, zero, identity):
    """Raise a TableError naming the first failing axiom and a witness, or
    return what was found on the way: (a generating set, the inverse of each
    element)."""
    m = len(table)
    if m == 0:
        raise TableError("empty table")
    arr = np.asarray(table, dtype=np.int32)
    if arr.shape != (m, m):
        raise TableError("not square: shape %r" % (arr.shape,))
    if arr.min() < 0 or arr.max() >= m:
        bad = np.argwhere((arr < 0) | (arr >= m))[0]
        raise TableError("entry out of range at (%d, %d)" % (bad[0], bad[1]))
    if not 0 <= zero < m:
        raise TableError("zero index %d out of range" % zero)
    if not (arr[zero, :] == zero).all() or not (arr[:, zero] == zero).all():
        s = int(np.argmax((arr[zero, :] != zero) | (arr[:, zero] != zero)))
        raise TableError("zero not absorbing: witness s=%d" % s)
    if identity is not None:
        if not 0 <= identity < m:
            raise TableError("identity index %d out of range" % identity)
        idx = np.arange(m)
        if not (arr[identity, :] == idx).all() or not (arr[:, identity] == idx).all():
            s = int(np.argmax((arr[identity, :] != idx) | (arr[:, identity] != idx)))
            raise TableError("identity fails: witness s=%d" % s)
    # associativity via Light's test: (x g) y = x (g y) for generators g
    # suffices once every element is a bracketed product of generators, and
    # any generating set finds a failure; the index-order scan names it
    gens = _semigroup_generators(arr)
    if _associativity_witness(arr, gens) is not None:
        witness = _associativity_witness(arr, _semigroup_generators(arr, widest=False))
        raise TableError("not associative: witness (%d, %d, %d)" % witness)
    pair, inv = _inverses(arr)
    counts = pair.sum(axis=1)
    if (counts == 0).any():
        raise TableError("no inverse: element %d" % int(np.argmax(counts == 0)))
    if (counts > 1).any():
        s = int(np.argmax(counts > 1))
        ts = np.flatnonzero(pair[s])[:2]
        raise TableError("multiple inverses: element %d (%d and %d)" % (s, ts[0], ts[1]))
    # a regular semigroup with unique inverses is inverse: idempotents commute
    return gens, inv


def _bound_table(leq, count):
    """out[s, t] = the greatest z with leq[z, s] and leq[z, t], or -1.

    count[z] is the number of y with leq[y, z].  The common lower bounds of
    s and t form a down-set, so z is the greatest of them exactly when z is
    one of them and its own down-set has as many members.  The join table
    passes the order transposed, with up-set sizes."""
    m = len(leq)
    out = np.empty((m, m), dtype=np.int32)
    for s in range(m):
        zs = np.flatnonzero(leq[:, s])
        low = leq[zs]                   # low[i, t]: zs[i] <= s and zs[i] <= t
        hit = low & (count[zs, None] == low.sum(axis=0))
        out[s] = np.where(hit.any(axis=0), zs[hit.argmax(axis=0)], -1)
    return out


def _components(dom, ran):
    """(label, c): label[a] is the connected component of a, numbered from 0
    by least member, in the graph that joins each a to dom[a] and ran[a]."""
    label = np.arange(len(dom))
    while True:  # each a and its endpoints all take the least label
        new = np.minimum(label, np.minimum(label[dom], label[ran]))
        np.minimum.at(new, dom, new.copy())
        np.minimum.at(new, ran, new.copy())
        if (new == label).all():
            break
        label = new
    roots = label == np.arange(len(label))  # a least member keeps its own label
    return (np.cumsum(roots) - 1)[label], int(roots.sum())


def _bisection_count(label, c, objects):
    """The number of local bisections of a finite groupoid whose arrow a lies
    in component label[a] of c and is an identity when objects[a].  By
    Brandt's theorem a component with n objects is its local group, of order
    h = arrows / n^2, times the pair groupoid on n, whose local bisections
    number sum_k C(n, k)^2 k! h^k; the components' counts multiply."""
    arrows = np.bincount(label, minlength=c).tolist()
    objs = np.bincount(label[objects], minlength=c).tolist()
    return math.prod(_brandt(n, a // (n * n)) for n, a in zip(objs, arrows))


def _brandt(n, h):
    """Brandt's count for one component of n objects and local groups of order h."""
    return sum(math.comb(n, k) ** 2 * math.factorial(k) * h**k for k in range(n + 1))


class MulTable:
    """A validated finite inverse semigroup with zero."""

    def __init__(self, table, zero, identity=None, names=None, check=True):
        m = len(table)
        _check_size(m)
        self.T = np.asarray(table, dtype=np.int32)
        self.m = m
        self.zero = int(zero)
        self.identity = None if identity is None else int(identity)
        self.names = list(names) if names is not None else None
        self._gens = None
        if check:
            self._gens, self.inv = _check_axioms(self.T, self.zero, self.identity)
        else:
            self.inv = _inverses(self.T)[1]
        arr = self.T
        diag_idx = np.arange(m)
        self.is_idem = arr[diag_idx, diag_idx] == diag_idx
        self.E = [int(e) for e in np.flatnonzero(self.is_idem)]
        self.dom = arr[self.inv, diag_idx]        # d(s) = s^-1 s
        self.ran = arr[diag_idx, self.inv]        # r(s) = s s^-1
        # natural order s <= t iff s = t d(s)
        self._leq = np.empty((m, m), dtype=bool)
        for lo in range(0, m, BLOCK):
            s = diag_idx[lo:lo + BLOCK, None]
            self._leq[lo:lo + BLOCK] = arr[:, self.dom[lo:lo + BLOCK]].T == s
        self._below_count = self._leq.sum(axis=0)
        self._above_count = self._leq.sum(axis=1)
        self._phi = None
        self._join = None
        self._supp = None
        self._classes = None
        self._comp = None
        self._compat = None

    # -- basic ops ---------------------------------------------------------

    def mul(self, a, b):
        return int(self.T[a, b])

    def inverse(self, a):
        return int(self.inv[a])

    def leq(self, a, b):
        return bool(self._leq[a, b])

    def name(self, a):
        if self.names is not None:
            return self.names[a]
        return "s%d" % a

    def nonzero(self):
        return [s for s in range(self.m) if s != self.zero]

    def generators(self):
        """A generating set, computed once: every element is a product of these."""
        if self._gens is None:
            self._gens = _semigroup_generators(self.T)
        return self._gens

    def find_identity(self):
        if self.identity is not None:
            return self.identity
        idx = np.arange(self.m)
        for e in self.E:
            if (self.T[e, :] == idx).all() and (self.T[:, e] == idx).all():
                return int(e)
        return None

    # -- order structure ---------------------------------------------------

    def below(self, a):
        return [int(x) for x in np.flatnonzero(self._leq[:, a])]

    def above(self, a):
        return [int(x) for x in np.flatnonzero(self._leq[a, :])]

    def phi(self):
        """phi[s]: the greatest idempotent below s, or -1.  An idempotent e <= s
        is the greatest exactly when as many idempotents lie below e as below s."""
        if self._phi is None:
            below = self._leq[self.E]                  # below[i, s]: E[i] <= s
            count = below.sum(axis=0)
            hit = below & (count[self.E][:, None] == count)
            self._phi = np.where(hit.any(axis=0), np.asarray(self.E)[hit.argmax(axis=0)], -1)
        return self._phi

    def meet(self, a, b):
        """Greatest lower bound, or None if it does not exist: a ^ b = phi(a b^-1) b,
        and a b^-1 has a greatest idempotent below it exactly when a ^ b exists."""
        f = int(self.phi()[self.T[a, self.inv[b]]])
        return None if f < 0 else int(self.T[f, b])

    def join(self, a, b):
        """Least upper bound, or None if it does not exist."""
        if self._join is None:
            self._join = _bound_table(self._leq.T, self._above_count)
        v = int(self._join[a, b])
        return None if v < 0 else v

    def join_of_set(self, xs):
        """Least upper bound of a finite set, or None; empty set joins to zero."""
        ups = self._leq[list(xs)].all(axis=0)
        hit = ups & (self._above_count == ups.sum())
        return int(hit.argmax()) if hit.any() else None

    def compatible(self, a, b):
        return bool(self.compat_matrix()[a, b])

    def compat_matrix(self):
        """compat[s, t]: s^-1 t and s t^-1 are idempotent, BLOCK rows at a time."""
        if self._compat is None:
            self._compat = np.empty((self.m, self.m), dtype=bool)
            for lo in range(0, self.m, BLOCK):
                left = np.take(self.T, self.inv[lo:lo + BLOCK], axis=0)   # s^-1 t
                right = np.take(self.T[lo:lo + BLOCK], self.inv, axis=1)  # s t^-1
                self._compat[lo:lo + BLOCK] = self.is_idem[left] & self.is_idem[right]
        return self._compat

    def orthogonal(self, a, b):
        return (
            self.T[self.inv[a], b] == self.zero and self.T[a, self.inv[b]] == self.zero
        )

    def zero_minimal(self):
        """Nonzero elements with nothing strictly between them and zero."""
        return np.flatnonzero(self._below_count == 2).tolist()

    def support_matrix(self):
        """supp[i, s]: the i-th 0-minimal element lies below s, so column s is
        the support of s.  The one source of supports; zero's is empty."""
        if self._supp is None:
            self._supp = self._leq[self.zero_minimal()]
        return self._supp

    def lenz_classes(self):
        """(lam, reps): lam[s] numbers the Lenz class of s, the elements with
        its support, by first appearance, and reps[c] is the first element of
        class c; zero's is {zero}.  _boolean and the 0-minimal groupoid read it."""
        if self._classes is None:
            ranks, firsts = _row_labels(self.support_matrix().T)
            reps = np.sort(firsts)
            self._classes = np.searchsorted(reps, firsts[ranks]).tolist(), reps.tolist()
        return self._classes

    def minimal_components(self):
        """_components of the groupoid of 0-minimal elements, taken in order:
        the endpoints d(z) and r(z) of a 0-minimal z are 0-minimal too."""
        if self._comp is None:
            zm = self.zero_minimal()
            self._comp = _components(
                np.searchsorted(zm, self.dom[zm]), np.searchsorted(zm, self.ran[zm])
            )
        return self._comp

    def minset(self, a):
        """The support of a: the 0-minimal elements below a."""
        return frozenset(itertools.compress(self.zero_minimal(), self.support_matrix()[:, a]))

    # -- serialization -----------------------------------------------------

    def to_text(self):
        head = "elements %d zero %d" % (self.m, self.zero)
        ident = self.find_identity()
        if ident is not None:
            head += " identity %d" % ident
        # one row at a time: the whole table as Python ints would outweigh it
        lines = [head] + [" ".join(map(str, row.tolist())) for row in self.T]
        if self.names is not None:
            for i, nm in enumerate(self.names):
                # from_text drops comments and collapses whitespace runs
                if "#" in nm or " ".join(nm.split()) != nm:
                    raise TableError(
                        "name of element %d cannot be written back: %r" % (i, nm)
                    )
                lines.append("name %d %s" % (i, nm))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """The table written in text, a str or an open text file (see read_lines)."""
        rows, nrows, overflow_line = None, 0, None   # the int32 table, filled row by row
        header = None
        names = {}
        for lineno, _, line in read_lines(text):
            row = _digit_row(line) if header is not None else None
            if row is None:
                parts = line.split()
                if parts[0] == "elements":
                    if header is not None:
                        raise TableError("line %d: duplicate header" % lineno)
                    if len(parts) not in (4, 6) or parts[2] != "zero" or (
                        len(parts) == 6 and parts[4] != "identity"
                    ):
                        raise TableError("line %d: bad header" % lineno)
                    header = {
                        "m": _index(parts[1], lineno),
                        "zero": _index(parts[3], lineno),
                        "identity": _index(parts[5], lineno) if len(parts) == 6 else None,
                    }
                    continue
                if header is None:
                    raise TableError("line %d: %r before the header" % (lineno, line))
                if parts[0] == "name":
                    i = _index(parts[1], lineno) if len(parts) > 1 else -1
                    if not 0 <= i < header["m"] or i in names:
                        msg = "line %d: name needs a new index in 0..%d"
                        raise TableError(msg % (lineno, header["m"] - 1))
                    names[i] = " ".join(parts[2:])
                    continue
                try:
                    row = [int(x) for x in parts]
                except ValueError:
                    msg = "line %d: entries must be integers" % lineno
                    raise TableError(msg) from None
            m = header["m"]
            if len(row) != m:
                raise TableError("line %d: expected %d entries" % (lineno, m))
            if rows is None:  # grown by doubling as rows come: a short body stays small
                rows = np.empty((0, m), np.int32)
            if nrows == len(rows) < m <= max_elements():  # past the limit, only counted
                rows.resize((min(2 * nrows + 1, m), m), refcheck=False)
            if nrows < len(rows):
                try:
                    rows[nrows] = row
                except OverflowError:  # reported once the table is read
                    overflow_line = overflow_line or lineno
            nrows += 1
        if header is None:
            raise TableError("missing header line")
        if nrows != header["m"]:
            raise TableError("expected %d rows, got %d" % (header["m"], nrows))
        _check_size(header["m"])
        if overflow_line:
            raise TableError("line %d: entries must fit in int32" % overflow_line)
        name_list = [names.get(i, "s%d" % i) for i in range(header["m"])] if names else None
        return cls([] if rows is None else rows, header["zero"], header["identity"], name_list)


def _digit_row(line):
    """The entries of a row of ASCII digits and spaces, read by numpy's C
    parser, or None.  Any other row, and one with an entry past int32, takes
    the token path of from_text, which words the errors.  The C parser would
    read a lone "-" as 0 and "- 2" as -2, so signs are left out; it reads to
    int64, which saturates where int32 would wrap."""
    if not line.isascii() or line.encode().translate(None, b"0123456789 "):
        return None
    row = np.fromstring(line, dtype=np.int64, sep=" ")
    return row if row.max() <= INT32_MAX else None


def _index(token, lineno):
    try:
        return int(token)
    except ValueError:
        raise TableError("line %d: %r is not an integer" % (lineno, token)) from None


# ---------------------------------------------------------------------------
# constructions

def symmetric_inverse_monoid(k):
    """I(k), the partial injections on k points, f*g applying g first: the
    local bisections of the pair groupoid on k points, each the map sending
    j to i for its arrows (i,j), ordered by image tuple and named [j>i,...].
    Brandt's count of them meets the element limit before the groupoid is built."""
    from . import duality

    if k < 1:
        raise ValueError("k must be at least 1")
    _check_size(_brandt(k, 1), "bisection semigroup")
    G = duality.shape_groupoid([(k, [[0]])])
    image = {}
    for A in duality.local_bisections(G):
        image[A] = f = [-1] * k
        for a in A:  # the arrow (i,j) is i*k + j
            f[a % k] = a // k
    sets = sorted(image, key=image.get)
    S = duality._bisection_table(G, sets)
    S.names = ["[%s]" % ",".join("%d>%d" % p for p in enumerate(image[A]) if p[1] >= 0)
               for A in sets]
    return S


def idempotent_subtable(S):
    """The idempotent semilattice as its own table, plus the index embedding."""
    return subtable(S, S.E)


def subtable(S, elements):
    """Restrict to a subset closed under product and inverse, keeping the
    identity if the subset holds it; returns the table and the embedding."""
    emb = np.array(sorted(set(elements) | {S.zero}), dtype=np.intp)
    pos = np.full(S.m, -1, dtype=np.intp)
    pos[emb] = np.arange(len(emb))
    table = pos[S.T[np.ix_(emb, emb)]]
    bad = np.column_stack([pos[S.inv[emb]] < 0, table < 0])  # by a, inverse first
    if bad.any():
        i, j = np.argwhere(bad)[0]
        if j == 0:
            raise TableError("subset not closed under inverse at %d" % emb[i])
        raise TableError("subset not closed under product at (%d, %d)" % (emb[i], emb[j - 1]))
    ident = S.find_identity()
    identity = None if ident is None or pos[ident] < 0 else int(pos[ident])
    names = [S.name(e) for e in emb]
    return MulTable(table, int(pos[S.zero]), identity, names), emb.tolist()


# ---------------------------------------------------------------------------
# predicates

def _fundamental(S):
    return len(set(mu_classes(S))) == S.m


def _row_labels(rows):
    """(labels, firsts): np.unique(rows, axis=0, return_inverse=True)'s
    labels, the ranks of the distinct rows, and the first row of each rank
    (lexsort is stable), without the numpy.ma import np.unique makes."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ranked = rows[order]
    starts = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))
    labels = np.empty(len(rows), dtype=np.int64)
    labels[order] = np.cumsum(starts) - 1
    return labels, order[starts]


def mu_classes(S):
    """Partition by the maximum idempotent-separating congruence: s and t
    share a class when they conjugate every idempotent alike, s e s^-1."""
    return _row_labels(S.T[S.T[:, S.E], S.inv[:, None]])[0].tolist()


def _zero_simple(S):
    """Every nonzero principal ideal is S: exactly when every nonzero element
    is 0-minimal and their groupoid is connected."""
    return len(S.zero_minimal()) == S.m - 1 and S.minimal_components()[1] == 1


def _zero_disjunctive(S):
    """Each idempotent e < f, both nonzero, is missed by some nonzero
    idempotent g <= f (g e = 0): exactly when the nonzero idempotents have
    pairwise distinct supports."""
    E = [e for e in S.E if e != S.zero]
    return not E or len(_row_labels(S.support_matrix()[:, E].T)[1]) == len(E)


def _e_star_unitary(S):
    """Everything above a nonzero idempotent is idempotent."""
    E = [e for e in S.E if e != S.zero]
    return not (S._leq[E] & ~S.is_idem).any()


def _unambiguous(S):
    """Nonzero idempotents with a nonzero product are comparable."""
    E = [e for e in S.E if e != S.zero]
    L = S._leq[np.ix_(E, E)]
    return not ((S.T[np.ix_(E, E)] != S.zero) & ~L & ~L.T).any()


def _join_table(S):
    """out[s, t] = the join of s and t, or -1; the first join call fills it."""
    S.join(S.zero, S.zero)
    return S._join


def _meet_semigroup(S):
    """Every meet exists exactly when every element has a greatest idempotent
    below it (Leech)."""
    return bool((S.phi() >= 0).all())


def _distributive(S):
    """Compatible pairs have joins and multiplication distributes over them.

    Binary checks suffice: joins of larger compatible sets are nested binary
    joins once every pair works, because inversion swaps the order around and
    a verified binary law keeps products of joins compatible.  The factor c
    runs over a generating set only: multiplying keeps compatible pairs
    compatible, so if c and d satisfy c(a v b) = ca v cb for every compatible
    pair, then so does cd, and likewise on the right."""
    T, J = S.T, _join_table(S)
    a, b = np.nonzero(S.compat_matrix())
    js = J[a, b]
    if (js < 0).any():
        return False
    for c in S.generators():
        # c (a v b) = ca v cb and (a v b) c = ac v bc, for every pair at once
        if (J[T[c, a], T[c, b]] != T[c, js]).any():
            return False
        if (J[T[a, c], T[b, c]] != T[js, c]).any():
            return False
    return True


def _boolean(S):
    """Distributive, with relative complements of idempotents.  Once every
    meet exists, s -> V_s, the 0-minimal elements below s, is a homomorphism
    into the local bisections of the 0-minimal groupoid, and S is Boolean
    exactly when it is one-to-one and onto (the finite duality): when the
    support columns are distinct and as many as the bisections."""
    if not _meet_semigroup(S):
        return False
    count = _bisection_count(*S.minimal_components(), S.is_idem[S.zero_minimal()])
    return S.m == count and len(S.lenz_classes()[1]) == S.m


def predicates(S):
    boolean = _boolean(S)
    return {
        "fundamental": _fundamental(S),
        "zero_simple": _zero_simple(S),
        "zero_disjunctive": _zero_disjunctive(S),
        "e_star_unitary": _e_star_unitary(S),
        "unambiguous": _unambiguous(S),
        "meet_semigroup": _meet_semigroup(S),
        "distributive": boolean or _distributive(S),  # Boolean tables are, by definition
        "boolean": boolean,
    }


# ---------------------------------------------------------------------------
# congruences

def is_congruence_free(S):
    """True iff the only congruences are equality and the universal one.

    Decided by the structural criterion: fundamental, 0-simple, and
    0-disjunctive idempotents."""
    return S.m >= 2 and _fundamental(S) and _zero_simple(S) and _zero_disjunctive(S)


# ---------------------------------------------------------------------------
# tightly closed ideals and the 0-simplifying property

def tightly_closed_ideals(S):
    """The tightly closed ideals, smallest first, then by sorted members: the
    sets C(O) = {s : supp(s) in O}, one for each union O of components of the
    groupoid of 0-minimal elements.

    Bit k of mask[s] says that supp(s) meets component k.  The list has 2^c
    sets of at most m members; it is refused when those 2^c m cells exceed
    the cells of the largest table the element limit allows."""
    label, c = S.minimal_components()
    if (1 << c) * S.m > max_elements() ** 2:
        raise SizeLimitError(
            "tightly closed ideals: 2^%d ideals of %d elements exceed %d^2 cells "
            "(set STONEDUAL_MAX_ELEMENTS to raise)" % (c, S.m, max_elements())
        )
    meets = np.zeros((c, S.m), dtype=bool)
    np.logical_or.at(meets, label, S.support_matrix())
    weight = np.array([1 << k for k in range(c)], dtype=np.int64 if c < 63 else object)
    mask = weight @ meets.astype(weight.dtype)
    found = [np.flatnonzero((mask & ~bits) == 0).tolist() for bits in range(1 << c)]
    found.sort(key=lambda ideal: (len(ideal), ideal))
    return [frozenset(ideal) for ideal in found]


def is_zero_simplifying(S):
    """No tightly closed ideal strictly between {0} and S: those ideals are
    the C(O) above, so exactly when the 0-minimal groupoid has at most one
    component; no meet is needed."""
    return S.minimal_components()[1] <= 1
