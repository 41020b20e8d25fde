"""Shared generators for randomized tests; the seeded inputs that selftest
also draws come from stonedual.selftest."""

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
