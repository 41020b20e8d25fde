"""Answer checks that never call the stonedual function they check.

Every element the benchmark multiplies (polycyclic, graph inverse semigroup,
tree pair, Cuntz unit) is a finite set of prefix substitutions.  A part is a
tuple (domain root, domain word, image root, image word): it sends
domain word + t to image word + t.  Two elements are equal exactly when their
parts define the same partial map on infinite words, which `same_map` decides
by walking the trie of domain words.  Products are compositions of partial
maps, built here straight from that definition.
"""

from fractions import Fraction


class WrongAnswer(Exception):
    """A checked answer disagrees with its oracle or golden output."""


def compose(f, g):
    """Parts of the partial map "g first, then f"."""
    out = []
    for dr, dw, ir, iw in g:
        for dr2, dw2, ir2, iw2 in f:
            if ir != dr2:
                continue
            if dw2[: len(iw)] == iw:
                out.append((dr, dw + dw2[len(iw):], ir2, iw2))
            elif iw[: len(dw2)] == dw2:
                out.append((dr, dw, ir2, iw2 + iw[len(dw2):]))
    return out


def inverse(f):
    return [(ir, iw, dr, dw) for dr, dw, ir, iw in f]


class _Map:
    """Lookup structure for one set of pairwise compatible parts."""

    def __init__(self, parts):
        self.at = {}
        self.inner = set()
        for dr, dw, ir, iw in parts:
            self.at[(dr, dw)] = (ir, iw)
            for k in range(len(dw)):
                self.inner.add((dr, dw[:k]))

    def image(self, root, w):
        for k in range(len(w), -1, -1):
            hit = self.at.get((root, w[:k]))
            if hit is not None:
                return (hit[0], hit[1] + w[k:])
        return None

    def below(self, root, w):
        return (root, w) in self.inner


def same_map(f, g, roots, children):
    """Whether two compatible part sets define the same partial map on
    infinite words.  `roots` lists the roots, `children(root, w)` the letters
    that may follow w (all n letters for words, in-edges for graph paths)."""
    A, B = _Map(f), _Map(g)
    stack = [(root, ()) for root in roots]
    while stack:
        root, w = stack.pop()
        a, b = A.image(root, w), B.image(root, w)
        if a is not None and b is not None:
            if a != b:
                return False
            continue
        a_more = a is not None or A.below(root, w)
        b_more = b is not None or B.below(root, w)
        if not a_more and not b_more:
            continue
        if not a_more or not b_more:
            return False
        kids = children(root, w)
        if not kids:
            return False
        stack.extend((root, w + (c,)) for c in kids)
    return True


def letters(n):
    kids = tuple(range(n))
    return lambda root, w: kids


def graph_children(graph):
    """Edges that extend a path anchored at `root`: the in-edges of its
    current domain vertex."""

    def kids(root, w):
        v = graph.edges[w[-1]][0] if w else root
        return graph.in_edges[v]

    return kids


def meet(f, g):
    """Meet of two single prefix substitutions: the intersection of their
    graphs, which is the longer part when it restricts the shorter."""
    (fd, fw, fi, fy), (gd, gw, gi, gy) = f, g
    if fd != gd or fi != gi:
        return None
    if gw[: len(fw)] == fw and gy == fy + gw[len(fw):]:
        return g
    if fw[: len(gw)] == gw and fy == gy + fw[len(gw):]:
        return f
    return None


def arrow(a, B, children):
    """Every nonzero restriction of the part `a` meets some part of B,
    decided by enumerating every restriction one level past the deepest
    member of B."""
    dr, dw, ir, iw = a
    depth = 1 + max([len(b[1]) - len(dw) for b in B] + [0])
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for t in frontier:
            kids = children(dr, dw + t)
            if not kids:
                return False
            nxt.extend(t + (c,) for c in kids)
        frontier = nxt
    for t in frontier:
        restricted = (dr, dw + t, ir, iw + t)
        if not any(meet(restricted, b) is not None for b in B):
            return False
    return True


def is_maximal_prefix_code(words, n):
    """Prefix-free (checked on lexicographic neighbours) with Kraft sum 1."""
    ws = sorted(set(words))
    if len(ws) != len(words):
        return False
    for u, v in zip(ws, ws[1:]):
        if v[: len(u)] == u:
            return False
    return sum(Fraction(1, n ** len(w)) for w in ws) == 1


def is_normal_form(parts, n):
    """Orthogonal (domain words prefix-free per root, images too) with no
    complete sibling family left to glue."""
    for side in (0, 2):
        by_root = {}
        for p in parts:
            by_root.setdefault(p[side], []).append(p[side + 1])
        for ws in by_root.values():
            ws.sort()
            for u, v in zip(ws, ws[1:]):
                if v[: len(u)] == u:
                    return False
    fams = {}
    for dr, dw, ir, iw in parts:
        if dw and iw and dw[-1] == iw[-1]:
            fams.setdefault((dr, dw[:-1], ir, iw[:-1]), set()).add(dw[-1])
    return all(len(ks) < n for ks in fams.values())

