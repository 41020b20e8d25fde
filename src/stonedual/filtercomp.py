"""Filters, tight filters and distributive completions of finite inverse
semigroup tables, with booleanization reports and the universal property.

Everything here is finite, so a filter is the up-set of its minimum and the
tight filters are the ultrafilters, one per 0-minimal element.  So the Lenz
arrow a -> b is inclusion of supports, the 0-minimal elements below a and b,
and the Lenz quotient Q has the 0-minimal groupoid of S.  A class of the
completion is a local bisection of that groupoid, named by its support, a
set of 0-minimal classes; their setwise products, the completion's table,
are built only when read.  The tests build Q to check each completion.
"""

import functools
from collections import namedtuple

import numpy as np

from . import duality
from . import finitesgp as F
from .finitesgp import TableError, _first_failure, _hom_defects, _join_table

PrincipalFilter = namedtuple("PrincipalFilter", ["generator"])
DClass = namedtuple("DClass", ["support"])


class Completion:
    """delta, lam, the classes and their names, as distributive_completion
    gives them; D, the table of the classes, is built on first read."""

    def __init__(self, G, sets, supports, delta, lam):
        self._bisections, self.delta, self.lam = (G, sets), delta, lam
        self.classes = [DClass(k) for k in supports]
        self.names = duality._bisection_names(G, sets)

    @functools.cached_property
    def D(self):
        return duality._bisection_table(*self._bisections)


def ultrafilters(S):
    """Maximal filters of the natural order, one per 0-minimal element.

    In a finite poset every filter is the up-set of its minimum, and the
    maximal ones are generated by the 0-minimal elements.
    """
    return [PrincipalFilter(int(e)) for e in S.zero_minimal()]


def is_tight_filter(S, generator):
    """Whether the filter generated by a nonzero element meets every finite
    cover of each of its members.

    In a finite table that holds exactly when the generator is 0-minimal: the
    0-minimal elements below any other generator cover it and miss its
    filter, and a 0-minimal generator lies below some member of every cover
    of anything above it.
    """
    g = int(generator)
    if g == S.zero:
        raise TableError("zero generates no filter")
    return g in S.zero_minimal()


def distributive_completion(S):
    """Distributive completion of a finite inverse meet-semigroup.

    Multiplies setwise the local bisections of the 0-minimal groupoid of S,
    which is that of its Lenz quotient Q, so Q is not built.  By the duality
    this is the semigroup of compact-open local bisections of the tight
    groupoid, whose arrows at finite scale are the ultrafilters.  Class c of
    D is named by its support, the 0-minimal classes in its local bisection,
    and delta sends s to the class whose support holds those below s.  D is
    distributive, delta is a 0-restricted homomorphism sending covers to
    joins, and every class is the join of the delta images of its support.
    """
    if not F._meet_semigroup(S):
        raise TableError("distributive completion needs every meet to exist")
    return Completion(*duality._minimal_bisections(S), S.lenz_classes()[0])


def part1_isomorphism(S):
    """Match the idempotents of the completion of S with the completion of
    the idempotent part of S.

    Below an idempotent everything is idempotent and arrows between
    idempotents only mention idempotents, so both sides' classes are keyed by
    the same 0-minimal arrow classes; matching support keys gives the
    isomorphism (the tests re-prove its products).  Returns (ok, mapping)
    with mapping[j] the idempotent class of the completion of S, numbered
    among those, matching class j of the completion of E(S), or (False, None).
    """
    E, emb = F.idempotent_subtable(S)
    comp_s = distributive_completion(S)
    comp_e = distributive_completion(E)
    # arrow classes of E line up with arrow classes of S
    trans = {comp_e.lam[e]: comp_s.lam[emb[e]] for e in range(E.m)}
    # a class is idempotent when its support holds only idempotent atoms
    atoms = {comp_s.lam[z] for z in S.zero_minimal() if S.is_idem[z]}
    idem = [cl.support for cl in comp_s.classes if cl.support <= atoms]
    index = {k: i for i, k in enumerate(idem)}
    mapping = [index.get(frozenset(trans[t] for t in cl.support)) for cl in comp_e.classes]
    if None in mapping or sorted(mapping) != list(range(len(idem))):
        return False, None
    return True, mapping


def booleanization_report(S):
    """Flag record for the Booleanization of the idempotent part of S.

    Takes any finite inverse meet-semigroup table; the flags concern its
    semilattice of idempotents E (equal to S when S is a semilattice), are
    read off S without building E, and come from the finite theorems rather
    than recomputed (the test suite re-proves each one by definition).  The
    completion of E is the Boolean algebra of subsets of its atoms, with the
    atoms' join as identity; every tight filter is an ultrafilter; the atoms
    cover E, so E is compactable; E embeds densely exactly when it is
    0-disjunctive; and the idempotents of the completion of S are the
    completion of E (part 1).  The trapping condition is vacuous at finite
    scale (a finite set covers itself) and is reported as such.
    """
    if not F._meet_semigroup(S):
        raise TableError("booleanization report needs every meet to exist")
    # E's atoms are the 0-minimal idempotents of S, and a 0-minimal element
    # below an idempotent is one, so supports in S and in E agree
    atoms = [e for e in S.zero_minimal() if S.is_idem[e]]
    return {
        "tight_eq_ultra": True,  # a 0-minimal generator is tight, any other is not
        "D_boolean": True,  # the completion is the power set of the atoms
        "unital": True,  # the set of all atoms is the identity
        "compactable": True,  # every nonzero idempotent sits above an atom
        "densely_embedded": F._zero_disjunctive(S),
        "part1_iso": True,  # E(D(S)) = D(E(S)) on every inverse meet-semigroup
        "trapping": "vacuous",
        "essential_set": sorted(S.name(a) for a in atoms),
        "D_size": 2 ** len(atoms),
    }


def check_universal_property(S, T, theta):
    """Extend theta: S -> T to the completion of S, or say why that fails.

    theta lists one T index per S element.  It must be a zero-preserving
    homomorphism into a distributive T that turns covers into joins.  On
    success returns (True, theta_bar) where theta_bar joins theta over the
    support of each class; it is checked to be a homomorphism,
    join-preserving, and to restrict to theta along delta.
    Uniqueness comes from every class being a join of delta images.  On
    failure returns (False, reason) naming the violated product or cover.
    """
    theta = [int(x) for x in theta]
    if len(theta) != S.m:
        raise TableError("theta must list one image per element")
    if any(not 0 <= x < T.m for x in theta):
        raise TableError("theta image out of range")
    if theta[S.zero] != T.zero:
        return False, "zero is not preserved"
    fail = _first_failure(_hom_defects(S, T, theta))
    if fail is not None:
        return False, "not a homomorphism at (%s, %s)" % tuple(map(S.name, fail[1]))
    if not F._distributive(T):
        return False, "target is not distributive"

    for s in range(S.m):
        if T.join_of_set(theta[x] for x in S.minset(s)) != theta[s]:
            return False, "not cover-to-join at %s with cover {%s}" % (
                S.name(s),
                ",".join(S.name(x) for x in sorted(S.minset(s))),
            )

    comp = distributive_completion(S)
    # theta is constant on arrow classes: equal classes have equal 0-minimal
    # lower bounds and theta of an element is the join over those
    reps = S.lenz_classes()[1]
    theta_bar = []
    for c, cl in enumerate(comp.classes):
        v = T.join_of_set(theta[reps[t]] for t in cl.support)
        if v is None:
            return False, "images of %s have no join in the target" % comp.names[c]
        theta_bar.append(v)
    D = comp.D
    fail = _first_failure(_hom_defects(D, T, theta_bar))
    if fail is not None:
        names = tuple(map(D.name, fail[1]))
        return False, "extension is not a homomorphism at (%s, %s)" % names
    tb, JD = np.array(theta_bar), _join_table(D)
    fail = _first_failure((JD >= 0) & (_join_table(T)[tb[:, None], tb] != tb[JD]))
    if fail is not None:
        names = tuple(map(D.name, fail[1]))
        return False, "extension does not preserve the join of (%s, %s)" % names
    for s in range(S.m):
        if theta_bar[comp.delta[s]] != theta[s]:
            return False, "extension does not restrict to theta at %s" % S.name(s)
    return True, theta_bar
