"""Polycyclic inverse monoids on n generators and their r-fold matrix variants.

A nonzero element is a pair of words y, x over the same alphabet, thought of as
the partial prefix substitution w = x.rest |-> y.rest; x is the domain side.
Products follow the usual three-case rule: (y x^-1)(v u^-1) is (y z) u^-1 when
v = x z, is y (u z)^-1 when x = v z, and 0 otherwise.

The r-fold variant decorates a nonzero element with a range root i and a domain
root j in 1..r; products compose only when the inner roots agree.

This module holds the primitives of both; meet, compatibility, orthogonality,
the arrow relation and covers are the shared ones of `words.element_ops`.
"""

import functools
import re
from collections import namedtuple

from .words import (
    Word,
    element_ops,
    format_word,
    letter_branches,
    parse_word,
    _check_same_alphabet,
    _strip_prefix,
)

PolyElement = namedtuple("PolyElement", ["n", "y", "x"])
ExtPolyElement = namedtuple("ExtPolyElement", ["n", "r", "i", "m", "j"])


def poly(n, y, x):
    y = tuple(y)
    x = tuple(x)
    for a in y + x:
        if not 0 <= a < n:
            raise ValueError("letter index %r out of range for alphabet of size %d" % (a, n))
    return PolyElement(n, y, x)


@functools.cache  # one shared zero per n: zero products allocate nothing
def poly_zero(n):
    return PolyElement(n, None, None)


def poly_one(n):
    return PolyElement(n, (), ())


def poly_is_zero(s):
    return s.y is None


def poly_mul(s, t):
    _check_same_alphabet(s, t)
    if poly_is_zero(s) or poly_is_zero(t):
        return poly_zero(s.n)
    z = _strip_prefix(s.x, t.y)
    if z is not None:
        return PolyElement(s.n, s.y + z, t.x)
    z = _strip_prefix(t.y, s.x)
    if z is not None:
        return PolyElement(s.n, s.y, t.x + z)
    return poly_zero(s.n)


def poly_inv(s):
    if poly_is_zero(s):
        return s
    return PolyElement(s.n, s.x, s.y)


def poly_is_idempotent(s):
    return poly_is_zero(s) or s.y == s.x


def poly_leq(s, t):
    """Natural order: s <= t iff s = t (s^-1 s), i.e. both coordinates of s
    extend those of t by one common word."""
    _check_same_alphabet(s, t)
    if poly_is_zero(s):
        return True
    if poly_is_zero(t):
        return False
    p = _strip_prefix(t.y, s.y)
    return p is not None and s.x == t.x + p


def poly_act(s, w):
    """Apply the partial prefix substitution: defined iff x is a prefix of w."""
    if not isinstance(w, Word):
        raise TypeError("poly_act expects a Word")
    if s.n != w.n:
        raise ValueError("alphabet mismatch")
    if poly_is_zero(s):
        return None
    rem = _strip_prefix(s.x, w.letters)
    if rem is None:
        return None
    return Word(s.n, s.y + rem)


poly_compatible, poly_orthogonal, poly_meet, lenz_arrow, is_cover = element_ops(
    poly_mul, poly_inv, poly_is_zero, poly_is_idempotent, poly_leq,
    lambda s: poly_zero(s.n), lambda s: s.x, lambda a: (0, letter_branches(a.n)),
)


# ---------------------------------------------------------------------------
# literals

def format_poly(s):
    if poly_is_zero(s):
        return "0"
    if s.x == ():
        return format_word(s.y, s.n)  # covers "1" when y is empty too
    if s.y == ():
        return "%s^-1" % format_word(s.x, s.n)
    return "%s.%s^-1" % (format_word(s.y, s.n), format_word(s.x, s.n))


def parse_poly(text, n):
    if n < 1:  # checked on input: poly_zero trusts the n of the elements it zeroes
        raise ValueError("alphabet size must be >= 1")
    text = text.strip()
    if text == "0":
        return poly_zero(n)
    m = re.fullmatch(r"(.+?)\.(.+?)\^-1", text)
    if m:
        return poly(n, parse_word(m.group(1), n).letters, parse_word(m.group(2), n).letters)
    m = re.fullmatch(r"(.+?)\^-1", text)
    if m:
        return poly(n, (), parse_word(m.group(1), n).letters)
    return poly(n, parse_word(text, n).letters, ())


# ---------------------------------------------------------------------------
# r-fold matrix variant: nonzero elements (i | m | j) with roots i, j in 1..r

def ext(n, r, i, m, j):
    if poly_is_zero(m):
        raise ValueError("use ext_zero for the zero element")
    if not (1 <= i <= r and 1 <= j <= r):
        raise ValueError("roots (%r, %r) out of range 1..%d" % (i, j, r))
    if m.n != n:
        raise ValueError("alphabet mismatch")
    return ExtPolyElement(n, r, i, m, j)


@functools.cache  # one shared zero per (n, r), around the shared poly_zero(n)
def ext_zero(n, r):
    return ExtPolyElement(n, r, 0, poly_zero(n), 0)


def ext_is_zero(s):
    return s.i == 0


def _check_ext(s, t):
    if s.n != t.n or s.r != t.r:
        raise ValueError("parameter mismatch: (%d,%d) vs (%d,%d)" % (s.n, s.r, t.n, t.r))


def ext_mul(s, t):
    _check_ext(s, t)
    if ext_is_zero(s) or ext_is_zero(t):
        return ext_zero(s.n, s.r)
    if s.j != t.i:
        return ext_zero(s.n, s.r)
    m = poly_mul(s.m, t.m)
    if poly_is_zero(m):
        return ext_zero(s.n, s.r)
    return ExtPolyElement(s.n, s.r, s.i, m, t.j)


def ext_inv(s):
    if ext_is_zero(s):
        return s
    return ExtPolyElement(s.n, s.r, s.j, poly_inv(s.m), s.i)


def ext_is_idempotent(s):
    return ext_is_zero(s) or (s.i == s.j and poly_is_idempotent(s.m))


def ext_leq(s, t):
    _check_ext(s, t)
    if ext_is_zero(s):
        return True
    if ext_is_zero(t):
        return False
    return s.i == t.i and s.j == t.j and poly_leq(s.m, t.m)


ext_compatible, ext_orthogonal, ext_meet, ext_lenz_arrow = element_ops(
    ext_mul, ext_inv, ext_is_zero, ext_is_idempotent, ext_leq,
    lambda s: ext_zero(s.n, s.r), lambda s: s.m.x, lambda a: (0, letter_branches(a.n)),
)[:4]


def format_ext(s):
    if ext_is_zero(s):
        return "0"
    return "(%d|%s,%s|%d)" % (
        s.i,
        format_word(s.m.y, s.n),
        format_word(s.m.x, s.n),
        s.j,
    )


def parse_ext(text, n, r):
    text = text.strip()
    if text == "0":
        return ext_zero(n, r)
    m = re.fullmatch(r"\((\d+)\|([^,|]*),([^,|]*)\|(\d+)\)", text)
    if not m:
        raise ValueError("cannot parse element %r" % (text,))
    i, j = int(m.group(1)), int(m.group(4))
    y = parse_word(m.group(2), n).letters
    x = parse_word(m.group(3), n).letters
    return ext(n, r, i, poly(n, y, x), j)
