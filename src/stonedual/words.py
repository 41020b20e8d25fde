"""Words over a finite alphabet, prefix codes, paths in a directed graph, and
the element operations shared by every semigroup of such words or paths.

Words are tuples of small integer letter indices; the empty word is ().
Letters print as a..z for alphabets of size <= 26 and as a0, a1, ... beyond.
Paths are edge sequences read from the range end: a path (e1, ..., ek) requires
src(e_i) = dst(e_{i+1}), its range is dst(e1) and its domain is src(ek), so a
prefix (initial segment) of a path shares its range vertex.
"""

import functools
import re
from collections import namedtuple
from fractions import Fraction

from . import InternalError  # noqa: F401  (re-exported: one class for every layer)
from . import read_lines


Word = namedtuple("Word", ["n", "letters"])
RootedWord = namedtuple("RootedWord", ["root", "letters"])
PrefixRel = namedtuple("PrefixRel", ["kind", "remainder"])

EQUAL = "equal"
X_PREFIX_OF_Y = "x_prefix_of_y"
Y_PREFIX_OF_X = "y_prefix_of_x"
INCOMPARABLE = "incomparable"


def make_word(n, letters):
    if n < 1:
        raise ValueError("alphabet size must be >= 1")
    letters = tuple(letters)
    for a in letters:
        if not 0 <= a < n:
            raise ValueError("letter index %r out of range for alphabet of size %d" % (a, n))
    return Word(n, letters)


def letter_name(i, n):
    if n <= 26:
        return chr(ord("a") + i)
    return "a%d" % i


def format_word(w, n=None):
    """Render a letter tuple or Word; the empty word renders as '1'."""
    if isinstance(w, Word):
        n, letters = w.n, w.letters
    else:
        letters = tuple(w)
        if n is None:
            raise ValueError("alphabet size required to format a bare letter tuple")
    if not letters:
        return "1"
    return "".join(letter_name(a, n) for a in letters)


def parse_word(text, n):
    """Inverse of format_word. '1' is the empty word, and its only spelling."""
    text = text.strip()
    if not text:
        raise ValueError("empty word literal %r: write the empty word as 1" % (text,))
    if text == "1":
        return make_word(n, ())
    if n <= 26:
        pat = re.compile(r"[a-z]")
    else:
        pat = re.compile(r"a\d+")
    pos = 0
    letters = []
    while pos < len(text):
        m = pat.match(text, pos)
        if not m:
            raise ValueError("cannot parse word %r at position %d" % (text, pos))
        tok = m.group(0)
        idx = ord(tok) - ord("a") if n <= 26 else int(tok[1:])
        if not 0 <= idx < n:
            raise ValueError("letter %r out of range for alphabet of size %d" % (tok, n))
        letters.append(idx)
        pos = m.end()
    return make_word(n, letters)


def _check_same_alphabet(x, y):
    if x.n != y.n:
        raise ValueError("alphabet mismatch: %d vs %d" % (x.n, y.n))


def prefix_compare(x, y):
    """Compare two words in the prefix order; remainder z satisfies long = short + z."""
    _check_same_alphabet(x, y)
    a, b = x.letters, y.letters
    if a == b:
        return PrefixRel(EQUAL, make_word(x.n, ()))
    if len(a) < len(b) and b[: len(a)] == a:
        return PrefixRel(X_PREFIX_OF_Y, make_word(x.n, b[len(a):]))
    if len(b) < len(a) and a[: len(b)] == b:
        return PrefixRel(Y_PREFIX_OF_X, make_word(x.n, a[len(b):]))
    return PrefixRel(INCOMPARABLE, None)


def _strip_prefix(short, long):
    # letter- or edge-tuple helper: remainder if short is a prefix of long, else None
    if len(short) <= len(long) and long[: len(short)] == short:
        return long[len(short):]
    return None


def covers_to_depth(tails, start, branches, depth):
    """True iff every branch of length `depth` from vertex `start` has a
    prefix in `tails`; a dead end (a vertex with no branches) above `depth`
    counts against. branches[v] lists the (label, next vertex) pairs out of
    v, and nodes are label tuples. Iterative, so any depth works.
    """
    stack = [((), start)]
    while stack:
        cur, vertex = stack.pop()
        if cur in tails:
            continue
        if len(cur) == depth:
            return False
        out = branches[vertex]
        if not out:
            return False
        stack.extend((cur + (label,), nxt) for label, nxt in out)
    return True


@functools.cache
def letter_branches(n):
    """The extension tree of words over n letters: vertex 0 with n loops."""
    return (tuple((a, 0) for a in range(n)),)


def prefix_covers_depth(letters_set, n, depth):
    """True iff every word of length `depth` has a prefix in letters_set.

    letters_set is a set of letter tuples, all of length <= depth. With
    more letters than tuples some first letter begins none: no branch is built.
    """
    if () in letters_set or n > len(letters_set):
        return () in letters_set
    return covers_to_depth(letters_set, 0, letter_branches(n), depth)


def is_prefix_code(code):
    ws = list(code)
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if prefix_compare(ws[i], ws[j]).kind != INCOMPARABLE:
                return False
    return True


def _checked_code(code, n):
    """The words of code as a list, and n, or the first word's alphabet size
    when n is None; ValueError unless there is a word and all are over n."""
    ws = list(code)
    if not ws:
        raise ValueError("empty code")
    if n is None:
        n = ws[0].n
    for w in ws:
        if w.n != n:
            raise ValueError("alphabet mismatch inside code")
    return ws, n


def kraft_count(lengths, n):
    """The Kraft sum over n letters of words of these lengths, carried up in
    integers in O(k + L): n words at length l make one at length l - 1.
    The count that reaches the root, and {length: count left there}."""
    counts = [0] * (max(lengths) + 1)
    for length in lengths:
        counts[length] += 1
    carry, left = 0, {}
    for length in range(len(counts) - 1, 0, -1):
        carry, rest = divmod(carry + counts[length], n)
        if rest:
            left[length] = rest
    return counts[0] + carry, left


def is_maximal_prefix_code(code, n=None):
    """True iff `code` (a nonempty set of Words, letters in 0..n-1) is a prefix
    code with Kraft sum 1: a finite prefix code is maximal exactly then."""
    ws, n = _checked_code(code, n)
    return is_prefix_code(ws) and kraft_count([len(w.letters) for w in ws], n) == (1, {})


def fills_roots(code, n, r):
    """True iff code, rooted words over 0..n-1 that form a prefix code at
    each root, has Kraft sum 1 at every root 1..r, so is maximal there."""
    lengths = {}
    for w in code:
        lengths.setdefault(w.root, []).append(len(w.letters))
    return len(lengths) == r and all(kraft_count(ls, n) == (1, {}) for ls in lengths.values())


def kraft_sum(code, n=None):
    """Exact sum of n^{-|w|} over the code. Errors unless the input is a prefix code."""
    ws, n = _checked_code(code, n)
    if not is_prefix_code(ws):
        raise ValueError("not a prefix code")
    whole, left = kraft_count([len(w.letters) for w in ws], n)
    return sum((Fraction(c, n ** length) for length, c in left.items()), Fraction(whole))


def all_letter_tuples(n, length):
    if length == 0:
        yield ()
        return
    for rest in all_letter_tuples(n, length - 1):
        for a in range(n):
            yield rest + (a,)


# ---------------------------------------------------------------------------
# rooted words (for the r-fold variants): root indices run 1..r

def make_rooted(root, letters, r, n):
    if not 1 <= root <= r:
        raise ValueError("root %r out of range 1..%d" % (root, r))
    return RootedWord(root, make_word(n, letters).letters)


def format_rooted(rw, n, r):
    body = format_word(rw.letters, n)
    if r == 1:
        return body
    return "r%d:%s" % (rw.root, body)


def parse_rooted(text, n, r):
    if r < 1:
        raise ValueError("root count must be >= 1")
    text = text.strip()
    m = re.match(r"r(\d+):(.*)$", text)
    if m:
        root = int(m.group(1))
        body = m.group(2)
    else:
        root = 1
        body = text
    if not 1 <= root <= r:
        raise ValueError("root %d out of range 1..%d" % (root, r))
    if not body.strip():
        raise ValueError("empty word literal %r: write the empty word as 1" % (text,))
    return RootedWord(root, parse_word(body, n).letters)


def is_rooted_maximal_prefix_code(code, n, r):
    """True iff every root 1..r appears and each root's word set is a maximal
    prefix code (the singleton empty word counts)."""
    by_root = {k: set() for k in range(1, r + 1)}
    seen = set()
    for rw in code:
        if rw in seen:
            return False
        seen.add(rw)
        if rw.root not in by_root:
            raise ValueError("root %d out of range 1..%d" % (rw.root, r))
        by_root[rw.root].add(rw.letters)
    codes = ([Word(n, t) for t in ws] for ws in by_root.values())
    return all(map(is_prefix_code, codes)) and fills_roots(seen, n, r)


# ---------------------------------------------------------------------------
# directed graphs and paths of the free category on a graph

class DirectedGraph:
    """Finite directed multigraph with named vertices and edges.

    For an edge e: src -> dst we treat src as the domain and dst as the range
    of the corresponding arrow, so in-edges of v are the edges with dst = v.
    """

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex")
        for v in self.vertices:  # literals are u/v, paths @v or e.f..., lists a,b,...
            for mark in "/,":
                if mark in v:
                    raise ValueError("vertex name %r cannot hold %r" % (v, mark))
        self.edges = {}
        for name, src, dst in edges:
            if "." in name or "/" in name or name.startswith("@"):
                raise ValueError("edge name %r cannot hold '.' or '/' or start with '@'" % (name,))
            if "," in name:
                raise ValueError("edge name %r cannot hold ','" % (name,))
            if name in self.edges:
                raise ValueError("duplicate edge name %r" % (name,))
            if src not in vs or dst not in vs:
                raise ValueError("edge %r references unknown vertex" % (name,))
            self.edges[name] = (src, dst)
        self.in_edges = {v: [] for v in self.vertices}
        for name in sorted(self.edges):
            self.in_edges[self.edges[name][1]].append(name)
        # the extension tree of paths: a path ending at v grows by an in-edge
        # of v, and the grown path ends at that edge's source
        self.branches = {
            v: tuple((e, self.edges[e][0]) for e in self.in_edges[v])
            for v in self.vertices
        }

    def in_degree(self, v):
        return len(self.in_edges[v])

    def edge_src(self, e):
        return self.edges[e][0]

    def to_text(self):
        lines = ["vertex %s" % v for v in self.vertices]
        for name in sorted(self.edges):
            src, dst = self.edges[name]
            lines.append("edge %s %s %s" % (name, src, dst))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """The graph written in text, a str or an open text file (see read_lines)."""
        vertices = []
        edges = []
        for lineno, raw, line in read_lines(text):
            parts = line.split()
            if parts[0] == "vertex" and len(parts) == 2:
                vertices.append(parts[1])
            elif parts[0] == "edge" and len(parts) == 4:
                edges.append((parts[1], parts[2], parts[3]))
            else:
                raise ValueError("line %d: cannot parse %r" % (lineno, raw))
        return cls(vertices, edges)


Path = namedtuple("Path", ["graph", "anchor", "edges"])


def make_path(graph, anchor, edges):
    edges = tuple(edges)
    if anchor not in graph.in_edges:
        raise ValueError("unknown vertex %r" % (anchor,))
    cur = anchor
    for e in edges:
        if e not in graph.edges:
            raise ValueError("unknown edge %r" % (e,))
        src, dst = graph.edges[e]
        if dst != cur:
            raise ValueError("edge %r does not continue the path at %r" % (e, cur))
        cur = src
    return Path(graph, anchor, edges)


def path_dom(p):
    if p.edges:
        return p.graph.edges[p.edges[-1]][0]
    return p.anchor


def format_path(p):
    if not p.edges:
        return "@%s" % p.anchor
    return ".".join(str(e) for e in p.edges)


def parse_path(text, graph):
    text = text.strip()
    if text.startswith("@"):
        v = text[1:]
        return make_path(graph, v, ())
    names = text.split(".")
    if not names or any(not t for t in names):
        raise ValueError("cannot parse path %r" % (text,))
    first = names[0]
    if first not in graph.edges:
        raise ValueError("unknown edge %r" % (first,))
    anchor = graph.edges[first][1]
    return make_path(graph, anchor, names)


ROSE_VERTEX = "*"


def one_vertex_graph(n):
    """The rose: the vertex ROSE_VERTEX with n loops named like the letters
    of an n-letter alphabet; its path algebra matches words over it."""
    loops = [(letter_name(i, n), ROSE_VERTEX, ROSE_VERTEX) for i in range(n)]
    return DirectedGraph([ROSE_VERTEX], loops)


def word_to_path(letters, n, graph):
    return make_path(graph, ROSE_VERTEX, tuple(letter_name(a, n) for a in letters))


# ---------------------------------------------------------------------------
# element operations shared by P_n, its r-rooted variant and the graph
# inverse semigroups


def element_ops(mul, inv, is_zero, is_idempotent, leq, zero, dom_word, covered):
    """(compatible, orthogonal, meet, lenz_arrow, is_cover) for one element
    type, as closures over its primitives. zero(s) is the zero next to s,
    dom_word(s) the domain-side word or edge tuple of a nonzero s, and
    covered(a, tails, depth) whether every extension of length depth below a
    has a prefix in tails, a set of tuples without the empty one.
    The types are unambiguous: elements with a nonzero common lower bound are
    comparable, so a meet is the smaller one or zero.
    """

    def compatible(s, t):
        return is_idempotent(mul(inv(s), t)) and is_idempotent(mul(s, inv(t)))

    def orthogonal(s, t):
        return is_zero(mul(inv(s), t)) and is_zero(mul(s, inv(t)))

    def meet(s, t):
        if leq(s, t):
            return s
        if leq(t, s):
            return t
        return zero(s)

    def lenz_arrow(a, B):
        """Decide whether every nonzero element below a meets some member of B.

        A nonzero element below a is a with its domain side extended by some
        w, and it meets b iff w is prefix-comparable with the tail that the
        meet of a and b adds there. So the answer is yes iff every extension
        of length L = max tail length has some tail as a prefix.
        """
        if is_zero(a):
            raise ValueError("arrow source must be nonzero")
        k = len(dom_word(a))
        tails = set()
        for b in B:
            m = meet(a, b)
            if not is_zero(m):
                tails.add(dom_word(m)[k:])
        if () in tails:
            return True
        if not tails:
            return False
        return covered(a, tails, max(map(len, tails)))

    def is_cover(a, A):
        """A finite subset of the lower set of a that every nonzero x <= a meets."""
        A = list(A)
        if not all(leq(s, a) for s in A):
            return False
        return lenz_arrow(a, A)

    return compatible, orthogonal, meet, lenz_arrow, is_cover
