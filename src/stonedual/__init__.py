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

import codecs
import itertools
import re

__version__ = "0.1.0"


class InternalError(Exception):
    """Raised when a computed result breaks an invariant that the theory
    guarantees: a defect in the library, not in the input."""


SLICE = 1 << 20     # characters per piece of the text readers
# a piece through its last line break (as str.splitlines), short of a CR at its end
_WHOLE = re.compile(r"(?s).*(?:\r\n|\r(?=.)|[\n\v\f\x1c-\x1e\x85\u2028\u2029])")


def read_lines(source):
    """(lineno, raw, line) for each line raw of source, a str or an open text
    file, numbered as str.splitlines numbers the whole text, whose line, raw
    without its '#' comment and outer whitespace, is not empty.  The source
    comes in pieces of at most SLICE characters, str slices or file lines,
    split through their last line break and never inside a CRLF: a file is
    never held whole, only its longest line.  A file's bytes are decoded by
    _decoded, which reports a bad byte at its offset in the file."""
    if isinstance(source, str):
        pieces = (source[i:i + SLICE] for i in range(0, len(source), SLICE))
    elif hasattr(source, "buffer"):
        pieces = _decoded(source)
    else:
        pieces = iter(lambda: source.readline(SLICE), "")
    lineno, held = 0, [""]
    for piece in itertools.chain(pieces, [""]):  # "" flushes what is held
        whole = _WHOLE.match(piece)
        cut = whole.end() if whole else 0  # or after a CR held from before
        if piece and not cut and not held[-1].endswith("\r"):
            held.append(piece)
            continue
        text, held = "".join(held) + piece[:cut], [piece[cut:]]
        for lineno, raw in enumerate(text.splitlines(), lineno + 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, raw, line


def _decoded(source):
    """The text of an open text file, decoded here from the bytes beneath it
    one readline(SLICE) at a time, so that a byte that does not decode is
    reported at its offset in the whole stream, from a path or a pipe."""
    decoder = codecs.getincrementaldecoder(source.encoding)(source.errors)
    read, decode = source.buffer.readline, decoder.decode
    offset, data = 0, True  # bytes decoded before data
    while data:
        data = read(SLICE)
        try:
            text = decode(data, not data)
        except UnicodeDecodeError as exc:  # exc.object: the bytes held, then data
            at = offset - len(decoder.getstate()[0]) + exc.start
            end = at + exc.end - exc.start - 1
            bad = ("byte 0x%02x in position %d" % (exc.object[exc.start], at)
                   if at == end else "bytes in position %d-%d" % (at, end))
            raise ValueError("'%s' codec can't decode %s: %s"
                             % (exc.encoding, bad, exc.reason)) from None
        offset += len(data)
        if text:  # "" would end the text early while a character is cut
            yield text
