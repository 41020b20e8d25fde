"""Exact arithmetic in the Cuntz inverse monoids C_{n,r} and their unit groups.

An element of C_{n,r} is stored as a finite set of pairwise compatible
nonzero extended polycyclic elements over (n, r), read as the join of its
parts.  Normalization discards parts lying under other parts and glues every
complete sibling family, leaving the unique orthogonal form with nothing
left to glue; equality of elements is equality of normal forms, which agrees
with the arrow test on generating sets.

Units are the elements whose domain and range words form r-rooted maximal
prefix codes.  They are also handled as tree pairs (two codes plus a pairing),
the classical presentation of the Thompson-Higman groups G_{n,r}; reduced
tree pairs and normalized units are two views of the same data, and the
conversion functions are mutually inverse on those.
"""

import itertools
import re
from collections import namedtuple

from . import polycyclic as pc
from .finitesgp import InternalError
from .words import (
    RootedWord,
    format_rooted,
    is_rooted_maximal_prefix_code,
    make_rooted,
    parse_rooted,
)

CuntzElement = namedtuple("CuntzElement", ["n", "r", "parts"])
TreePair = namedtuple("TreePair", ["n", "r", "domain", "range", "perm"])


def _part_key(p):
    return (p.i, p.m.y, p.m.x, p.j)


def _check_pair(x, y):
    if (x.n, x.r) != (y.n, y.r):
        raise ValueError(
            "parameter mismatch: (%d,%d) vs (%d,%d)" % (x.n, x.r, y.n, y.r)
        )


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
        if (p.n, p.r) != (n, r):
            raise ValueError(
                "parameter mismatch: (%d,%d) vs (%d,%d)" % (p.n, p.r, n, r)
            )
        if not pc.ext_is_zero(p):
            kept.append(p)
    kept = dict.fromkeys(kept)  # input order names the incompatible pair
    _leaf_map(kept)
    return CuntzElement(n, r, frozenset(kept))


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
            raise ValueError(
                "parts are not pairwise compatible: %s, %s"
                % (pc.format_ext(a), pc.format_ext(b))
            )
    pairs, last = {}, RootedWord(0, ())  # roots run 1..r: no part is under it
    for d, w in sorted(
        (RootedWord(p.j, p.m.x), RootedWord(p.i, p.m.y)) for p in parts
    ):
        if (d.root, d.letters[: len(last.letters)]) != last:
            pairs[d] = w
            last = d
    return pairs


def _from_leaf_map(n, r, pairs):
    return CuntzElement(n, r, frozenset(
        pc.ExtPolyElement(
            n, r, w.root, pc.PolyElement(n, w.letters, d.letters), d.root
        )
        for d, w in pairs
    ))


def cuntz_normalize(x):
    """Rewrite to the normal form: discard parts under other parts, then glue
    complete sibling families until none remain.

    The class of the join is unchanged: each original part arrows into the
    normal form and each normal-form part into the original parts.
    """
    # the maximal parts are orthogonal, so they have distinct domain words
    # and a complete sibling family of parts is a reducible leaf family
    nonzero = [p for p in x.parts if not pc.ext_is_zero(p)]
    pairs = _leaf_map(sorted(nonzero, key=_part_key))
    while _reduce_once(x.n, pairs):
        pass
    return _from_leaf_map(x.n, x.r, pairs.items())


def cuntz_mul(x, y):
    _check_pair(x, y)
    prods = frozenset(pc.ext_mul(a, b) for a in x.parts for b in y.parts)
    return cuntz_normalize(CuntzElement(x.n, x.r, prods))


def cuntz_inv(x):
    invs = frozenset(map(pc.ext_inv, x.parts))
    return cuntz_normalize(CuntzElement(x.n, x.r, invs))


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
    return cuntz_normalize(x).parts == cuntz_normalize(y).parts


def _unit_codes(x):
    """The domain and range words of the normal form x, in part order, if
    both are r-rooted maximal prefix codes; else None."""
    parts = sorted(x.parts, key=_part_key)
    codes = (
        [RootedWord(p.j, p.m.x) for p in parts],
        [RootedWord(p.i, p.m.y) for p in parts],
    )
    ok = all(is_rooted_maximal_prefix_code(c, x.n, x.r) for c in codes)
    return codes if parts and ok else None


def is_unit(x):
    """True iff the domain words and the range words of the normal form each
    form an r-rooted maximal prefix code: the element then acts on every long
    enough word."""
    return _unit_codes(cuntz_normalize(x)) is not None


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
    """Build a tree pair in canonical order: both codes sorted, the pairing
    rewired to match.  Construction does not reduce; tp_reduce does."""
    if n < 2:
        raise ValueError("alphabet size must be >= 2")
    domain = list(domain)
    range_ = list(range_)
    for w in domain + range_:
        if not isinstance(w, RootedWord):
            raise TypeError("codes must consist of rooted words")
    domain = [make_rooted(w.root, w.letters, r, n) for w in domain]
    range_ = [make_rooted(w.root, w.letters, r, n) for w in range_]
    perm = [int(q) for q in perm]
    k = len(domain)
    if len(range_) != k or len(perm) != k:
        raise ValueError("codes and pairing must have the same size")
    if sorted(perm) != list(range(k)):
        raise ValueError("pairing must be a permutation of 0..%d" % (k - 1))
    if not is_rooted_maximal_prefix_code(domain, n, r):
        raise ValueError("domain code is not an r-rooted maximal prefix code")
    if not is_rooted_maximal_prefix_code(range_, n, r):
        raise ValueError("range code is not an r-rooted maximal prefix code")
    dorder = sorted(range(k), key=lambda p: domain[p])
    rorder = sorted(range(k), key=lambda q: range_[q])
    rpos = {old: new for new, old in enumerate(rorder)}
    return TreePair(
        n,
        r,
        tuple(domain[p] for p in dorder),
        tuple(range_[q] for q in rorder),
        tuple(rpos[perm[p]] for p in dorder),
    )


def tp_identity(n, r):
    roots = [RootedWord(i, ()) for i in range(1, r + 1)]
    return tree_pair(n, r, roots, roots, range(r))


def tp_to_unit(g):
    """The unit with one part per leaf of the reduced pair: the leaf's image
    over the leaf.  Its leaves are pairwise orthogonal and leave no family to
    glue, so these parts are already the normal form."""
    g = tp_reduce(g)
    images = (g.range[q] for q in g.perm)
    return _from_leaf_map(g.n, g.r, zip(g.domain, images))


def tp_from_unit(x):
    """Read the codes and the pairing off the parts of a normalized unit."""
    x = cuntz_normalize(x)
    codes = _unit_codes(x)
    if codes is None:
        raise ValueError("not a unit")
    # a contractible part family is the same thing as a reducible leaf
    # family, so the tree pair of a normal form is reduced
    return tree_pair(x.n, x.r, *codes, range(len(x.parts)))


def _reduce_once(n, pairs):
    """Collapse every sibling family carried letter by letter onto a sibling
    family; families never share a leaf, so one sweep applies them all."""
    fams = {}
    for d, w in pairs.items():
        if d.letters and w.letters and d.letters[-1] == w.letters[-1]:
            key = (d.root, d.letters[:-1], w.root, w.letters[:-1])
            fams.setdefault(key, set()).add(d.letters[-1])
    changed = False
    for (dr, du, wr, wv), ks in fams.items():
        if len(ks) < n:
            continue
        for k in range(n):
            del pairs[RootedWord(dr, du + (k,))]
        pairs[RootedWord(dr, du)] = RootedWord(wr, wv)
        changed = True
    return changed


def tp_reduce(g):
    pairs = {g.domain[p]: g.range[g.perm[p]] for p in range(len(g.perm))}
    while _reduce_once(g.n, pairs):
        pass
    domain = sorted(pairs)
    return tree_pair(
        g.n, g.r, domain, [pairs[d] for d in domain], range(len(domain))
    )


def tp_inv(g):
    k = len(g.perm)
    inv = [0] * k
    for p in range(k):
        inv[g.perm[p]] = p
    return tree_pair(g.n, g.r, g.range, g.domain, inv)


def tp_mul(g, h):
    """Compose, right factor first: the product sends w through h, then g.

    The two middle codes are refined only where they disagree: each h-image
    comparable with a g-leaf contributes one composite leaf.
    """
    _check_pair(g, h)
    pairs = {}
    for p in range(len(h.domain)):
        z = h.range[h.perm[p]]
        for q in range(len(g.domain)):
            w = g.domain[q]
            if z.root != w.root:
                continue
            if w.letters[: len(z.letters)] == z.letters:
                tail = w.letters[len(z.letters):]
                d = RootedWord(h.domain[p].root, h.domain[p].letters + tail)
                img = g.range[g.perm[q]]
            elif z.letters[: len(w.letters)] == w.letters:
                tail = z.letters[len(w.letters):]
                d = h.domain[p]
                img = RootedWord(
                    g.range[g.perm[q]].root, g.range[g.perm[q]].letters + tail
                )
            else:
                continue
            # both codes are prefix codes, so each composite leaf arises once
            if d in pairs:
                raise InternalError("composite leaf %r arises twice" % (d,))
            pairs[d] = img
    domain = sorted(pairs)
    out = tree_pair(
        g.n, g.r, domain, [pairs[d] for d in domain], range(len(domain))
    )
    return tp_reduce(out)


def tp_eq(g, h):
    _check_pair(g, h)
    return tp_reduce(g) == tp_reduce(h)


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
    if m.group(3).strip():
        perm = [int(t) for t in m.group(3).split(",")]
    else:
        perm = []
    return tree_pair(n, r, domain, range_, perm)
