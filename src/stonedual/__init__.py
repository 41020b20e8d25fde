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

import re

__version__ = "0.1.0"


class InternalError(Exception):
    """Raised when a computed result breaks an invariant that the theory
    guarantees: a defect in the library, not in the input."""


SLICE = 1 << 20     # characters per step of the text readers
_BREAK = re.compile(r"\r\n?|[\n\v\f\x1c-\x1e\x85\u2028\u2029]")  # as str.splitlines


def read_lines(text):
    """(lineno, raw, line) for each line raw of text, numbered as
    str.splitlines numbers them, whose line, raw without its '#' comment and
    outer whitespace, is not empty.  The text is split one slice of about
    SLICE characters at a time.  Each slice ends just after a line break of
    any kind, and never between CR and LF, so no break is cut in two; text
    without a break is one slice."""
    lineno, start = 0, 0
    while start < len(text):
        cut = _BREAK.search(text, start + SLICE - 1)
        end = cut.end() if cut else len(text)
        for lineno, raw in enumerate(text[start:end].splitlines(), lineno + 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, raw, line
        start = end
