"""Shared generators for randomized tests, and two reference routes to the
maximality of rooted prefix codes; the seeded inputs that selftest also
draws come from stonedual.selftest."""

from stonedual import thompson as th
from stonedual import words as W


def random_complete_code(rng, n, max_len, max_splits=12):
    """Repeatedly split a random leaf: always a maximal prefix code of letter tuples."""
    code = {()}
    for _ in range(rng.randrange(0, max_splits)):
        splittable = [c for c in code if len(c) < max_len]
        if not splittable:
            break
        leaf = rng.choice(sorted(splittable))
        code.remove(leaf)
        code.update(leaf + (a,) for a in range(n))
    return code


def random_prefix_code(rng, n, max_len, max_splits=12):
    """A prefix code that is maximal unless some leaves got knocked out."""
    code = random_complete_code(rng, n, max_len, max_splits)
    for c in sorted(code):
        if len(code) > 1 and rng.random() < 0.2:
            code.discard(c)
    return code


def random_path(rng, g, max_len):
    """A path of at most max_len edges that ends at a random vertex of g,
    drawn backwards: each edge among those into the current source."""
    v = rng.choice(g.vertices)
    edges = []
    cur = v
    for _ in range(rng.randrange(0, max_len + 1)):
        ins = g.in_edges[cur]
        if not ins:
            break
        e = rng.choice(ins)
        edges.append(e)
        cur = g.edge_src(e)
    return W.make_path(g, v, tuple(edges))


def glues_to_roots(code, n, r):
    """The gluing route to the maximality of an r-rooted prefix code, a
    reference for the Kraft count: its identity leaf map glues down to the
    r roots."""
    roots = {W.RootedWord(i, ()): W.RootedWord(i, ()) for i in range(1, r + 1)}
    return th._glued(n, {w: w for w in code}) == roots


def covers_roots(code, n, r):
    """The covering route, the other reference: at each root 1..r, every
    word as long as the longest there has a prefix in the code."""
    by_root = {i: set() for i in range(1, r + 1)}
    for w in code:
        by_root[w.root].add(w.letters)
    return all(bool(ws) and W.prefix_covers_depth(ws, n, max(map(len, ws)))
               for ws in by_root.values())
