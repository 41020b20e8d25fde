"""Exact arithmetic in the Cuntz inverse monoids C_{n,r} and their unit groups.

An element of C_{n,r} is stored as a finite set of pairwise compatible
nonzero extended polycyclic elements over (n, r), read as the join of its
parts.  Units, the elements whose domain and range words form r-rooted
maximal prefix codes, are also handled as tree pairs (two codes plus a
pairing), the classical presentation of the Thompson-Higman groups G_{n,r}.

Both views compute on one internal form, the leaf map {domain word: range
word}.  The leaf map of an element is that of its maximal parts, which are
orthogonal, with every complete sibling family glued: the unique orthogonal
form with nothing left to glue, so equality of elements is equality of leaf
maps, which agrees with the arrow test on generating sets.  The leaf map of
a reduced tree pair is the same data.  Products compose leaf maps, inverses
swap them and reduction glues them, whichever view they come from.  Only
`tree_pair`, so every literal, and `tp_mul` check codes; the other
operations build their pair from a proven leaf map, and a `TreePair` built
by hand is outside the contract.  An element built here, by `cuntz` or an
operation, carries its normal form's leaf map, so no operation scans it
again; any other, a deep copy or a pickle too, is scanned once.
"""

import bisect
import itertools
import operator
import re
from collections import namedtuple

from . import InternalError
from . import polycyclic as pc
from .words import (
    RootedWord,
    format_rooted,
    is_rooted_maximal_prefix_code,
    make_rooted,
    parse_rooted,
    _strip_prefix,
)

CuntzElement = namedtuple("CuntzElement", ["n", "r", "parts"])
TreePair = namedtuple("TreePair", ["n", "r", "domain", "range", "perm"])


class _NormalParts(frozenset):
    """The parts of an element built here, with the leaf map of its normal
    form; a copy or a pickle of them is a plain frozenset."""
    __slots__ = ("leaf",)

    def __new__(cls, parts, leaf):
        self = super().__new__(cls, parts)
        self.leaf = leaf
        return self

    def __reduce__(self):
        return frozenset, (list(self),)


def _part_key(p):
    return (p.i, p.m.y, p.m.x, p.j)


def _check_pair(x, y):
    if (x.n, x.r) != (y.n, y.r):
        raise ValueError("parameter mismatch: (%d,%d) vs (%d,%d)"
                         % (x.n, x.r, y.n, y.r))


# ---------------------------------------------------------------------------
# leaf maps {domain word: range word} between r-rooted prefix codes


def _glued(n, pairs):
    """Glue, in place, every sibling family carried letter by letter onto a
    sibling family until none is left; families never share a leaf, so one
    sweep glues all that are present."""
    while True:
        fams = {}
        for d, w in pairs.items():
            if d.letters and w.letters and d.letters[-1] == w.letters[-1]:
                key = (d.root, d.letters[:-1], w.root, w.letters[:-1])
                fams.setdefault(key, set()).add(d.letters[-1])
        full = [key for key, ks in fams.items() if len(ks) == n]
        if not full:
            return pairs
        for dr, du, wr, wv in full:
            for k in range(n):
                del pairs[RootedWord(dr, du + (k,))]
            pairs[RootedWord(dr, du)] = RootedWord(wr, wv)


def _tail(w, v):
    """The letters v adds to w if v extends w, else None."""
    return _strip_prefix(w.letters, v.letters) if w.root == v.root else None


def _compose(outer, inner):
    """The leaf map of outer after inner, for maps between prefix codes.

    An image z of inner meets either the one leaf of outer above it, which
    sits just before z in outer's sorted domain code, or the leaves below it,
    which follow z there.  Each meeting gives one composite leaf: the
    nonzero products of the parts the two maps stand for.
    """
    keys, pairs = sorted(outer), {}
    for d, z in inner.items():
        i = bisect.bisect_left(keys, z)
        tail = _tail(keys[i - 1], z) if i else None
        if tail is not None:
            w = outer[keys[i - 1]]
            meets = [(d, RootedWord(w.root, w.letters + tail))]
        else:
            meets = []
            while i < len(keys) and _tail(z, keys[i]) is not None:
                tail = keys[i].letters[len(z.letters):]
                meets.append((RootedWord(d.root, d.letters + tail), outer[keys[i]]))
                i += 1
        for c, w in meets:
            # both codes are prefix codes, so each composite leaf arises once
            if c in pairs:
                raise InternalError("composite leaf %r arises twice" % (c,))
            pairs[c] = w
    return pairs


def _swap(pairs):
    return {w: d for d, w in pairs.items()}


# ---------------------------------------------------------------------------
# Cuntz monoid elements


def cuntz(n, r, parts):
    """Build an element from an iterable of parts, dropping zeros.

    The parts are read as a join, so they must be pairwise compatible.
    """
    if n < 2:
        raise ValueError("alphabet size must be >= 2")
    if r < 1:
        raise ValueError("root count must be >= 1")
    kept = []
    for p in parts:
        if not isinstance(p, pc.ExtPolyElement):
            raise TypeError("parts must be extended polycyclic elements")
        _check_pair(p, CuntzElement(n, r, ()))
        if not pc.ext_is_zero(p):
            kept.append(p)
    kept = dict.fromkeys(kept)  # input order names the incompatible pair
    return CuntzElement(n, r, _NormalParts(kept, _glued(n, _leaf_map(kept))))


def cuntz_zero(n, r):
    return cuntz(n, r, [])


def cuntz_one(n, r):
    one = pc.poly_one(n)
    return cuntz(n, r, [pc.ext(n, r, i, one, i) for i in range(1, r + 1)])


def _leaf_map(parts):
    """Check the parts pairwise for compatibility, in the order given, and
    return the leaf map of the maximal ones: domain word -> range word.

    Compatible parts with comparable domain words are comparable, and the one
    with the shorter domain word is the larger.  So in domain order a part
    lies under another exactly when its domain word extends the domain word
    of the last part kept.
    """
    for a, b in itertools.combinations(parts, 2):
        if not pc.ext_compatible(a, b):
            raise ValueError("parts are not pairwise compatible: %s, %s"
                             % (pc.format_ext(a), pc.format_ext(b)))
    pairs, last = {}, RootedWord(0, ())  # roots run 1..r: no part is under it
    for d, w in sorted(
        (RootedWord(p.j, p.m.x), RootedWord(p.i, p.m.y)) for p in parts
    ):
        if (d.root, d.letters[: len(last.letters)]) != last:
            pairs[d] = w
            last = d
    return pairs


def _normal(x):
    """The leaf map of the normal form of x: its maximal parts, which are
    orthogonal, so that a complete sibling family of parts is a reducible
    leaf family, glued until none remain; a carried map is only copied."""
    if isinstance(x.parts, _NormalParts):
        return dict(x.parts.leaf)
    nonzero = [p for p in x.parts if not pc.ext_is_zero(p)]
    return _glued(x.n, _leaf_map(sorted(nonzero, key=_part_key)))


def _from_leaf_map(n, r, pairs):
    return CuntzElement(n, r, _NormalParts((
        pc.ExtPolyElement(n, r, w.root, pc.PolyElement(n, w.letters, d.letters), d.root)
        for d, w in pairs.items()), pairs))


def cuntz_normalize(x):
    """Rewrite to the normal form: discard parts under other parts, then glue
    complete sibling families until none remain.

    The class of the join is unchanged: each original part arrows into the
    normal form and each normal-form part into the original parts.
    """
    return _from_leaf_map(x.n, x.r, _normal(x))


def cuntz_mul(x, y):
    # the composite leaves of the normal forms are orthogonal, so gluing
    # leaves the normal form of the product
    _check_pair(x, y)
    pairs = _compose(_normal(x), _normal(y))
    return _from_leaf_map(x.n, x.r, _glued(x.n, pairs))


def cuntz_inv(x):
    # the swapped map of a normal form has nothing to glue either
    return _from_leaf_map(x.n, x.r, _swap(_normal(x)))


def cuntz_meet(x, y):
    _check_pair(x, y)
    meets = frozenset(pc.ext_meet(a, b) for a in x.parts for b in y.parts)
    return cuntz_normalize(CuntzElement(x.n, x.r, meets))


def cuntz_join(x, y):
    _check_pair(x, y)
    parts = frozenset([*x.parts, *y.parts])
    return cuntz_normalize(CuntzElement(x.n, x.r, parts))


def cuntz_eq(x, y):
    """Equality of the joins, decided on normal forms.

    The normal form is a complete invariant, so this agrees with the arrow
    test in both directions.
    """
    _check_pair(x, y)
    return _normal(x) == _normal(y)


def is_unit(x):
    """True iff x^-1 x = 1 = x x^-1.  These are the identities on the domain
    words and on the range words of the normal form, so x is a unit iff each
    set of words glues down to the r roots, that is, iff each is an r-rooted
    maximal prefix code: x then acts on every long enough word."""
    return _glues_to_roots(x.n, x.r, _normal(x))


def _glues_to_roots(n, r, pairs):
    one = {RootedWord(i, ()): RootedWord(i, ()) for i in range(1, r + 1)}
    return all(_glued(n, {w: w for w in ws}) == one for ws in (pairs, pairs.values()))


def format_cuntz(x):
    return "{%s}" % ", ".join(
        pc.format_ext(p) for p in sorted(x.parts, key=_part_key)
    )


def parse_cuntz(text, n, r):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError("cannot parse element %r" % (text,))
    body = text[1:-1].strip()
    if not body:
        return cuntz(n, r, [])
    chunks = re.split(r",\s*(?=\()", body)
    return cuntz(n, r, [pc.parse_ext(c, n, r) for c in chunks])


# ---------------------------------------------------------------------------
# tree pairs


def tree_pair(n, r, domain, range_, perm):
    """Build a tree pair in canonical order, after checking both codes and
    the pairing.  Construction does not reduce; tp_reduce does."""
    if n < 2:
        raise ValueError("alphabet size must be >= 2")
    if r < 1:
        raise ValueError("root count must be >= 1")
    domain, range_, perm = list(domain), list(range_), list(perm)
    for w in domain + range_:
        if not isinstance(w, RootedWord):
            raise TypeError("codes must consist of rooted words")
    domain, range_ = ([make_rooted(w.root, w.letters, r, n) for w in ws] for ws in (domain, range_))
    for q, e in enumerate(perm):
        try:
            perm[q] = operator.index(e)
        except TypeError:
            raise ValueError("bad pairing entry %r at position %d" % (e, q)) from None
    k = len(domain)
    if len(range_) != k or len(perm) != k:
        raise ValueError("codes and pairing must have the same size")
    if sorted(perm) != list(range(k)):
        raise ValueError("pairing must be a permutation of 0..%d" % (k - 1))
    for side, code in (("domain", domain), ("range", range_)):
        if not is_rooted_maximal_prefix_code(code, n, r):
            raise ValueError("%s code is not an r-rooted maximal prefix code" % side)
    return _canonical(n, r, {d: range_[q] for d, q in zip(domain, perm)})


def _canonical(n, r, pairs):
    """The pair of a proven leaf map, unchecked: codes sorted, pairing rewired."""
    domain, range_ = sorted(pairs), sorted(pairs.values())
    pos = {w: q for q, w in enumerate(range_)}
    return TreePair(n, r, tuple(domain), tuple(range_), tuple(pos[pairs[d]] for d in domain))


def _pairs(g):
    return {d: g.range[q] for d, q in zip(g.domain, g.perm)}


def tp_identity(n, r):
    roots = [RootedWord(i, ()) for i in range(1, r + 1)]
    return tree_pair(n, r, roots, roots, range(r))


def tp_to_unit(g):
    """The unit with one part per leaf of the reduced pair: the leaf's image
    over the leaf.  Its leaves are pairwise orthogonal and leave no family to
    glue, so these parts are already the normal form."""
    return _from_leaf_map(g.n, g.r, _glued(g.n, _pairs(g)))


def tp_from_unit(x):
    """Read the codes and the pairing off the normal form of a unit.  A
    contractible part family is the same thing as a reducible leaf family,
    so the tree pair of a normal form is reduced."""
    try:
        pairs = _normal(x)
    except ValueError:
        pairs = {}  # parts that are not pairwise compatible make no unit
    if not _glues_to_roots(x.n, x.r, pairs):
        raise ValueError("not a unit")
    return _canonical(x.n, x.r, pairs)


def tp_reduce(g):
    return _canonical(g.n, g.r, _glued(g.n, _pairs(g)))


def tp_inv(g):
    return _canonical(g.n, g.r, _swap(_pairs(g)))


def tp_mul(g, h):
    """Compose, right factor first: the product sends w through h, then g."""
    _check_pair(g, h)
    pairs = _glued(g.n, _compose(_pairs(g), _pairs(h)))
    return tree_pair(g.n, g.r, pairs, pairs.values(), range(len(pairs)))


def tp_eq(g, h):
    _check_pair(g, h)
    return _glued(g.n, _pairs(g)) == _glued(h.n, _pairs(h))


def format_tree_pair(g):
    ds = ",".join(format_rooted(w, g.n, g.r) for w in g.domain)
    rs = ",".join(format_rooted(w, g.n, g.r) for w in g.range)
    ps = ",".join(str(q) for q in g.perm)
    return "{%s}->{%s}:perm=[%s]" % (ds, rs, ps)


def parse_tree_pair(text, n, r):
    m = re.fullmatch(r"\{(.*)\}->\{(.*)\}:perm=\[(.*)\]", text.strip())
    if not m:
        raise ValueError("cannot parse tree pair %r" % (text,))
    domain = [parse_rooted(t, n, r) for t in m.group(1).split(",")]
    range_ = [parse_rooted(t, n, r) for t in m.group(2).split(",")]
    perm = []
    for t in m.group(3).split(",") if m.group(3).strip() else []:
        try:
            perm.append(int(t))
        except ValueError:
            raise ValueError("bad pairing entry %r in tree pair %r" % (t.strip(), text)) from None
    return tree_pair(n, r, domain, range_, perm)
