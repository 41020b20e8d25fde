"""Graph inverse semigroups: elements are pairs of paths with a common domain
vertex, multiplied by the prefix three-case rule.

A nonzero element (u, v) stands for u v^-1, the partial map sending paths that
extend v to the corresponding extension of u. On the rose, one vertex with n
loops, this is P_n, and the primitives run P_n's rule on edge tuples. Meet,
compatibility, orthogonality and the arrow decision are the shared ones of
`words.element_ops`. The underlying graph may have sources (in-degree 0
vertices), and the extension tree of the arrow decision then has dead branches.
"""

from collections import namedtuple

from .words import (
    Path,
    _strip_prefix,
    element_ops,
    format_path,
    parse_path,
    path_dom,
)

GraphISGElement = namedtuple("GraphISGElement", ["graph", "u", "v"])


def gisg(u, v):
    if u.graph is not v.graph:
        raise ValueError("paths from different graphs")
    if path_dom(u) != path_dom(v):
        raise ValueError(
            "domain mismatch: %r vs %r" % (path_dom(u), path_dom(v))
        )
    return GraphISGElement(u.graph, u, v)


def gisg_zero(graph):
    return GraphISGElement(graph, None, None)


def gisg_is_zero(s):
    return s.u is None


def _check_graph(s, t):
    if s.graph is not t.graph:
        raise ValueError("elements from different graphs")


def gisg_mul(s, t):
    _check_graph(s, t)
    if gisg_is_zero(s) or gisg_is_zero(t) or s.v.anchor != t.u.anchor:
        return gisg_zero(s.graph)
    z = _strip_prefix(s.v.edges, t.u.edges)
    if z is not None:
        # t.u = s.v z: slide z over to the range side
        return GraphISGElement(s.graph, Path(s.graph, s.u.anchor, s.u.edges + z), t.v)
    z = _strip_prefix(t.u.edges, s.v.edges)
    if z is not None:
        # s.v = t.u z: slide z onto the domain side
        return GraphISGElement(s.graph, s.u, Path(s.graph, t.v.anchor, t.v.edges + z))
    return gisg_zero(s.graph)


def gisg_inv(s):
    if gisg_is_zero(s):
        return s
    return GraphISGElement(s.graph, s.v, s.u)


def gisg_is_idempotent(s):
    return gisg_is_zero(s) or s.u == s.v


def gisg_leq(s, t):
    _check_graph(s, t)
    if gisg_is_zero(s):
        return True
    if gisg_is_zero(t):
        return False
    if s.u.anchor != t.u.anchor or s.v.anchor != t.v.anchor:
        return False
    z = _strip_prefix(t.u.edges, s.u.edges)
    return z is not None and s.v.edges == t.v.edges + z


def gisg_act(s, p):
    """Apply the partial path substitution: defined iff v is a prefix of p."""
    if s.graph is not p.graph:
        raise ValueError("path from a different graph")
    if gisg_is_zero(s):
        return None
    z = _strip_prefix(s.v.edges, p.edges) if s.v.anchor == p.anchor else None
    return None if z is None else Path(p.graph, s.u.anchor, s.u.edges + z)


gisg_compatible, gisg_orthogonal, gisg_meet, gisg_lenz_arrow = element_ops(
    gisg_mul, gisg_inv, gisg_is_zero, gisg_is_idempotent, gisg_leq,
    lambda s: gisg_zero(s.graph), lambda s: s.v.edges,
    lambda a: (path_dom(a.v), a.graph.branches),
)[:4]


def semilattice_predicates(graph):
    """Structure of the idempotent semilattice, read off the in-degrees."""
    degs = {v: graph.in_degree(v) for v in graph.vertices}
    return {
        "no_zero_minimal": all(d >= 1 for d in degs.values()),
        "zero_disjunctive": all(d == 0 or d >= 2 for d in degs.values()),
        "pseudofinite": True,  # finite graphs always have finite in-degrees
        "pre_boolean": True,   # holds for every graph inverse semigroup
        "in_degree_zero_vertices": sorted(v for v, d in degs.items() if d == 0),
    }


def format_gisg(s):
    if gisg_is_zero(s):
        return "0"
    return "%s/%s" % (format_path(s.u), format_path(s.v))


def parse_gisg(text, graph):
    text = text.strip()
    if text == "0":
        return gisg_zero(graph)
    if "/" not in text:
        raise ValueError("cannot parse element %r (expected u/v)" % (text,))
    left, right = text.split("/", 1)
    return gisg(parse_path(left.strip(), graph), parse_path(right.strip(), graph))
