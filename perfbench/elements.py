"""The in-process workloads: `elements` and `cuntz`.

Inputs come in chunks, each drawn from its own seeded generator with a fixed
mix of operation kinds and sizes, so any whole number of chunks has the same
mix.  A run times each library call on its own; generating inputs and
checking answers happen between calls, outside the timed region.  Answers
are checked with `oracles`, which never calls the function under test.
"""

import random

import oracles
from oracles import WrongAnswer
from stonedual import graphisg as gi
from stonedual import polycyclic as pc
from stonedual import thompson as th
from stonedual import words as wd

PARAMS = ((2, 1), (2, 2), (3, 1), (3, 2))


# ---------------------------------------------------------------------------
# conversions to parts (domain root, domain word, image root, image word)

def poly_parts(s):
    return [] if s.y is None else [(1, s.x, 1, s.y)]


def gisg_parts(s):
    return [] if s.u is None else [(s.v.anchor, s.v.edges, s.u.anchor, s.u.edges)]


def tp_parts(g):
    return [(d.root, d.letters, g.range[g.perm[p]].root, g.range[g.perm[p]].letters)
            for p, d in enumerate(g.domain)]


def cuntz_parts(x):
    return [(p.j, p.m.x, p.i, p.m.y) for p in x.parts]


# ---------------------------------------------------------------------------
# input generators

def rand_word(rng, n, lmax):
    return tuple(rng.randrange(n) for _ in range(rng.randrange(0, lmax + 1)))


def rand_poly(rng, n, lmax):
    return pc.PolyElement(n, rand_word(rng, n, lmax), rand_word(rng, n, lmax))


def graphs(root):
    """rose2.graph and the two graphs of criterion 6."""
    with open(root / "graphs" / "rose2.graph") as fh:
        rose = wd.DirectedGraph.from_text(fh.read())
    return [
        rose,
        wd.DirectedGraph(["p", "q"], [("x", "q", "p"), ("y", "q", "p"), ("z", "q", "q")]),
        wd.DirectedGraph(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("c", "v", "v")]),
    ]


def rand_path(rng, graph, max_len):
    anchor = cur = rng.choice(graph.vertices)
    edges = []
    for _ in range(rng.randrange(0, max_len + 1)):
        ins = graph.in_edges[cur]
        if not ins:
            break
        e = rng.choice(ins)
        edges.append(e)
        cur = graph.edges[e][0]
    return wd.Path(graph, anchor, tuple(edges)), cur


def rand_gisg(rng, graph, max_len):
    v, dom = rand_path(rng, graph, max_len)
    for _ in range(30):
        u, dom_u = rand_path(rng, graph, max_len)
        if dom_u == dom:
            return gi.GraphISGElement(graph, u, v)
    return gi.GraphISGElement(graph, v, v)


def restrict_gisg(s, rng, max_len):
    """s restricted to a random extension of its domain path."""
    cur = s.v.edges[-1] if s.v.edges else None
    vertex = s.graph.edges[cur][0] if cur else s.v.anchor
    tail = []
    for _ in range(rng.randrange(0, max_len + 1)):
        ins = s.graph.in_edges[vertex]
        if not ins:
            break
        e = rng.choice(ins)
        tail.append(e)
        vertex = s.graph.edges[e][0]
    t = tuple(tail)
    return gi.GraphISGElement(
        s.graph, s.u._replace(edges=s.u.edges + t), s.v._replace(edges=s.v.edges + t))


def rand_prefix_code(rng, n, max_len, max_splits=12):
    """Criterion 7's codes: split random leaves, then knock some out."""
    code = {()}
    for _ in range(rng.randrange(0, max_splits)):
        splittable = [c for c in code if len(c) < max_len]
        if not splittable:
            break
        leaf = rng.choice(sorted(splittable))
        code.remove(leaf)
        code.update(leaf + (a,) for a in range(n))
    for c in sorted(code):
        if len(code) > 1 and rng.random() < 0.2:
            code.discard(c)
    return sorted(code)


def comb(depth):
    """{b, ab, aab, ..., a^(d-1) b, a^d}: a maximal binary prefix code of depth d."""
    return [(0,) * i + (1,) for i in range(depth)] + [(0,) * depth]


def rand_tree(rng, n, r, leaves):
    code = [wd.RootedWord(i, ()) for i in range(1, r + 1)]
    for _ in range(max(0, (leaves - r) // (n - 1))):
        w = code.pop(rng.randrange(len(code)))
        code.extend(wd.RootedWord(w.root, w.letters + (a,)) for a in range(n))
    return code


def rand_tree_pair(rng, n, r, leaves):
    dom = rand_tree(rng, n, r, leaves)
    ran = rand_tree(rng, n, r, leaves)
    perm = list(range(len(dom)))
    rng.shuffle(perm)
    return th.tree_pair(n, r, dom, ran, perm)


def expand(rng, g, count):
    """An unreduced representative: `count` random leaves split into their
    complete sibling families on both sides."""
    dom, ran, perm = [], [], []
    split = set(rng.sample(range(len(g.domain)), min(count, len(g.domain))))
    for p, d in enumerate(g.domain):
        w = g.range[g.perm[p]]
        kids = range(g.n) if p in split else [None]
        for k in kids:
            tail = () if k is None else (k,)
            dom.append(wd.RootedWord(d.root, d.letters + tail))
            ran.append(wd.RootedWord(w.root, w.letters + tail))
            perm.append(len(ran) - 1)
    return th.tree_pair(g.n, g.r, dom, ran, perm)


def scrambled(z, rng):
    """Criterion 10's representatives: expand up to two parts into complete
    families, sometimes add a dominated part; built without the library."""
    parts = sorted(z.parts)
    for _ in range(rng.randrange(0, 3)):
        p = parts.pop(rng.randrange(len(parts)))
        parts.extend(_restricted(p, (a,)) for a in range(z.n))
    if rng.random() < 0.5:
        w = tuple(rng.randrange(z.n) for _ in range(rng.randrange(1, 3)))
        parts.append(_restricted(rng.choice(parts), w))
    return th.CuntzElement(z.n, z.r, frozenset(parts))


def _restricted(p, w):
    return pc.ExtPolyElement(p.n, p.r, p.i, pc.PolyElement(p.n, p.m.y + w, p.m.x + w), p.j)


# ---------------------------------------------------------------------------
# the elements workload

# One chunk follows the layer map of workloads.json.  The plain element
# kinds come in equal counts and make up most of the ops, so op_p50_ms is set
# by the layers mapped to it: polycyclic, graphisg and words.  Tree pairs,
# one g, h per (n, r) and leaf count in each round, take about half of the
# timed time, so that thompson.tp_mul_s moves ops_per_s.  One comb code of
# each depth shows the RecursionError and the quadratic is_prefix_code.
# The time share of each kind is recorded in workloads.json.
PLAIN_KINDS = ("poly_mul", "poly_meet", "lenz_arrow", "gisg_mul", "gisg_lenz_arrow", "mpc")
PLAIN_PER_KIND = 1000
TREE_LEAVES = (4, 8, 16, 32, 64)
TREE_ROUNDS = 3
COMB_DEPTHS = (256, 512)


def element_chunk(seed, index, grs):
    """One chunk of (label, function, args, check) tuples, shuffled."""
    rng = random.Random("elements:%d:%d" % (seed, index))
    ops = []
    for kind in PLAIN_KINDS:
        for _ in range(PLAIN_PER_KIND):
            ops.append(_element_op(kind, rng, grs))
    for _ in range(TREE_ROUNDS):
        for n, r in PARAMS:
            for leaves in TREE_LEAVES:
                g = rand_tree_pair(rng, n, r, leaves)
                h = rand_tree_pair(rng, n, r, leaves)
                gx = expand(rng, g, 3)
                ops += _tree_pair_ops(g, h, gx, leaves)
    for depth in COMB_DEPTHS:
        code = [wd.Word(2, t) for t in comb(depth)]
        ops.append(("comb%d" % depth, wd, "is_maximal_prefix_code", (code, 2),
                    _expect(oracles.is_maximal_prefix_code(comb(depth), 2))))
    rng.shuffle(ops)
    return ops


def _expect(value):
    def check(got):
        if got != value:
            return "got %r, expected %r" % (got, value)
    return check


def _same(expected_parts, to_parts, roots, children, normal_n=None):
    def check(got):
        parts = to_parts(got)
        if not oracles.same_map(parts, expected_parts, roots, children):
            return "result is a different partial map"
        if normal_n is not None and not oracles.is_normal_form(parts, normal_n):
            return "result is not reduced"
    return check


def _element_op(kind, rng, grs):
    n = rng.choice((2, 3))
    if kind == "poly_mul":
        a, b = rand_poly(rng, n, 4), rand_poly(rng, n, 4)
        want = oracles.compose(poly_parts(a), poly_parts(b))
        return (kind, pc, kind, (a, b), _same(want, poly_parts, [1], oracles.letters(n)))
    if kind == "poly_meet":
        a = rand_poly(rng, n, 4)
        if rng.random() < 0.5:
            w = rand_word(rng, n, 3)
            b = pc.PolyElement(n, a.y + w, a.x + w)
        else:
            b = rand_poly(rng, n, 4)
        m = oracles.meet(poly_parts(a)[0], poly_parts(b)[0])
        want = pc.PolyElement(n, None, None) if m is None else pc.PolyElement(n, m[3], m[1])
        return (kind, pc, kind, (a, b), _expect(want))
    if kind == "lenz_arrow":
        a = rand_poly(rng, n, 5)
        B = []
        for _ in range(rng.randrange(0, 5)):
            if rng.random() < 0.7:
                w = rand_word(rng, n, 3)
                B.append(pc.PolyElement(n, a.y + w, a.x + w))
            else:
                B.append(rand_poly(rng, n, 5))
        want = oracles.arrow(poly_parts(a)[0], [poly_parts(b)[0] for b in B],
                             oracles.letters(n))
        return (kind, pc, kind, (a, B), _expect(want))
    if kind == "mpc":
        code = rand_prefix_code(rng, n, 8)
        return (kind, wd, "is_maximal_prefix_code", ([wd.Word(n, t) for t in code], n),
                _expect(oracles.is_maximal_prefix_code(code, n)))
    graph = rng.choice(grs)
    kids = oracles.graph_children(graph)
    a = rand_gisg(rng, graph, 3)
    if kind == "gisg_mul":
        b = rand_gisg(rng, graph, 3)
        want = oracles.compose(gisg_parts(a), gisg_parts(b))
        return (kind, gi, kind, (a, b), _same(want, gisg_parts, graph.vertices, kids))
    B = []
    for _ in range(rng.randrange(0, 5)):
        B.append(restrict_gisg(a, rng, 3) if rng.random() < 0.7 else rand_gisg(rng, graph, 3))
    want = oracles.arrow(gisg_parts(a)[0], [gisg_parts(b)[0] for b in B], kids)
    return (kind, gi, kind, (a, B), _expect(want))


def _tree_pair_ops(g, h, gx, leaves):
    roots, kids = range(1, g.r + 1), oracles.letters(g.n)
    return [
        ("tp_mul/%d" % leaves, th, "tp_mul", (g, h),
         _same(oracles.compose(tp_parts(g), tp_parts(h)), tp_parts, roots, kids, g.n)),
        ("tp_inv/%d" % leaves, th, "tp_inv", (g,),
         _same(oracles.inverse(tp_parts(g)), tp_parts, roots, kids)),
        ("tp_reduce/%d" % leaves, th, "tp_reduce", (gx,),
         _same(tp_parts(gx), tp_parts, roots, kids, g.n)),
    ]


def run_element_chunk(ops, call):
    for label, mod, name, args, check in ops:
        got, exc = call(label, getattr(mod, name), *args)
        if exc is None:
            bad = check(got)
            if bad:
                raise WrongAnswer("%s%r: %s" % (label, _short(args), bad))


def _short(args):
    text = repr(args)
    return text if len(text) < 300 else text[:300] + "..."


# ---------------------------------------------------------------------------
# the cuntz workload

# Leaf counts of the tree pairs per (n, r) in one chunk, one pair each: every
# count from 2 to 10 (criterion 10 draws 1-3 splits, 2-7 leaves), then 12, 16
# and 32, where the normalizer's super-quadratic growth shows.  The time
# share of each count is recorded in workloads.json.
CUNTZ_LEAVES = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 32)


def cuntz_chunk(seed, index):
    rng = random.Random("cuntz:%d:%d" % (seed, index))
    items = []
    for n, r in PARAMS:
        for leaves in CUNTZ_LEAVES:
            g = rand_tree_pair(rng, n, r, leaves)
            h = rand_tree_pair(rng, n, r, leaves)
            items.append((leaves, g, h, th.tp_mul(g, h), rng.getrandbits(32)))
    rng.shuffle(items)
    return items


def run_cuntz_item(item, call):
    """tp_to_unit on both factors, cuntz_mul, tp_from_unit back, then
    cuntz_normalize and cuntz_eq on representatives of the product."""
    leaves, g, h, gh, item_seed = item
    n, r = g.n, g.r
    roots, kids = range(1, r + 1), oracles.letters(n)
    rng = random.Random(item_seed)
    units = []
    for t in (g, h):
        x, exc = call("tp_to_unit/%d" % leaves, th.tp_to_unit, t)
        if exc is not None:
            return
        _check("tp_to_unit", _same(tp_parts(t), cuntz_parts, roots, kids, n)(x))
        units.append(x)
    z, exc = call("cuntz_mul/%d" % leaves, th.cuntz_mul, *units)
    if exc is not None:
        return
    want = oracles.compose(tp_parts(g), tp_parts(h))
    _check("cuntz_mul", _same(want, cuntz_parts, roots, kids, n)(z))
    back, exc = call("tp_from_unit/%d" % leaves, th.tp_from_unit, z)
    if exc is None:
        _check("tp_from_unit", None if back == gh else "differs from tp_mul: %r" % (back,))
    rep = scrambled(z, rng)
    got, exc = call("cuntz_normalize/%d" % leaves, th.cuntz_normalize, rep)
    if exc is None:
        _check("cuntz_normalize",
               None if got.parts == z.parts else "normal form differs: %r" % (got,))
    if rng.random() < 0.5 or len(z.parts) < 2:
        other = scrambled(z, rng)
    else:
        other = th.CuntzElement(n, r, frozenset(sorted(z.parts)[1:]))
    got, exc = call("cuntz_eq/%d" % leaves, th.cuntz_eq, z, other)
    if exc is None:
        same = oracles.same_map(cuntz_parts(z), cuntz_parts(other), roots, kids)
        _check("cuntz_eq", _expect(same)(got))


def _check(label, bad):
    if bad:
        raise WrongAnswer("%s: %s" % (label, bad))


# ---------------------------------------------------------------------------
# self-checks: the gate must reject a corrupted expected answer


def _gate_fires(expected_parts, got, to_parts, n, r):
    corrupt = list(expected_parts)
    d, w, i, y = corrupt[0]
    corrupt[0] = (d, w, i, y + (0,))
    return _same(corrupt, to_parts, range(1, r + 1), oracles.letters(n))(got) is not None


def element_gate_fires(chunk):
    g, h = next(op[3] for op in chunk if op[0].startswith("tp_mul/"))
    want = oracles.compose(tp_parts(g), tp_parts(h))
    return _gate_fires(want, th.tp_mul(g, h), tp_parts, g.n, g.r)


def cuntz_gate_fires(item):
    g = item[1]
    return _gate_fires(tp_parts(g), th.tp_to_unit(g), cuntz_parts, g.n, g.r)
