"""stonedual: exact arithmetic and Stone-type duality for finite inverse semigroups.

Subpackages by topic:
  words       words, prefix codes, Kraft sums, graphs and paths, and the
              element operations shared by polycyclic and graphisg
  polycyclic  polycyclic inverse monoids and their r-fold matrix variants
  graphisg    graph inverse semigroups
  finitesgp   finite inverse semigroups as multiplication tables, predicates
  filtercomp  filters, tight filters, distributive and Boolean completions
  duality     ultrafilter groupoids, bisection semigroups, classification
  thompson    Cuntz inverse monoid elements and Thompson-Higman tree pairs
  cli         command line front end

The public surface is what the command line reaches, what the acceptance
tests call, and the operations listed under "Library API" in README.md;
fixtures and reference routes that only tests call live in tests/.
"""

__version__ = "0.1.0"


class InternalError(Exception):
    """Raised when a computed result breaks an invariant that the theory
    guarantees: a defect in the library, not in the input."""
