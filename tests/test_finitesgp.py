import hashlib
import io
import json
import pathlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stonedual
from stonedual import finitesgp as F
from stonedual.selftest import relabeled
import tests_support_tables as TS
from tests_support_tables import (
    adjoined_z2,
    b2,
    b2_z2,
    chain,
    clifford_witness,
    cube,
    diamond,
    i2_x_i2,
    i_k,
    meet_corpus,
    no_meet,
    principal_congruence,
    union_of_chains,
)

TABLES = pathlib.Path(__file__).resolve().parent.parent / "tables"


# ---------------------------------------------------------------------------
# validation diagnostics

def test_validate_accepts_corpus():
    for name, S in meet_corpus().items():
        assert TS.validate(S.T, S.zero, S.identity) is None, name


def test_validate_shape_and_range():
    assert TS.validate([], 0) == "empty table"
    assert TS.validate([[0, 0]], 0) == "not square: shape (1, 2)"
    assert TS.validate([[0, 1], [1, 5]], 0) == "entry out of range at (1, 1)"
    assert TS.validate([[0]], 3) == "zero index 3 out of range"
    assert TS.validate([[0]], 0, identity=5) == "identity index 5 out of range"


def test_validate_zero_and_identity():
    assert TS.validate([[0, 0], [1, 1]], 0) == "zero not absorbing: witness s=1"
    assert TS.validate([[0, 0], [0, 1]], 0, identity=0) == "identity fails: witness s=1"
    assert TS.validate([[0, 0], [0, 1]], 0, identity=1) is None


def test_validate_associativity():
    # (1*1)*2 = 1 but 1*(1*2) = 2
    bad = [[0, 0, 0], [0, 2, 1], [0, 1, 1]]
    assert TS.validate(bad, 0) == "not associative: witness (1, 1, 2)"


def test_validate_inverses():
    # null product: 1 has no inverse
    assert TS.validate([[0, 0], [0, 0]], 0) == "no inverse: element 1"
    # left zero band with zero adjoined: both 1 and 2 invert 1
    band = [[0, 0, 0], [0, 1, 1], [0, 2, 2]]
    assert TS.validate(band, 0) == "multiple inverses: element 1 (1 and 2)"


def test_validate_never_raises_on_junk():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(2, 5)
        table = [[0] * m] + [
            [0] + [rng.randrange(m) for _ in range(m - 1)] for _ in range(m - 1)
        ]
        diag = TS.validate(table, 0)
        assert diag is None or isinstance(diag, str)
        if diag is None:
            F.MulTable(table, 0)


@st.composite
def perturbed_tables(draw):
    """(table, zero, identity): a corpus table, maybe relabelled, with a few
    entries away from the zero row and column overwritten; or a random table
    whose zero absorbs, so that most of them reach the associativity test."""
    if draw(st.booleans()):
        corpus = meet_corpus()
        corpus.update({"no_meet": no_meet(), "I(3)": i_k(3)})
        S = corpus[draw(st.sampled_from(sorted(corpus)))]
        if draw(st.booleans()):
            S = relabeled(S, random.Random(draw(st.integers(0, 9))))
        table, zero, identity = S.T.copy(), S.zero, S.find_identity()
        m = S.m
    else:
        m = draw(st.integers(1, 6))
        cell = st.integers(0, m - 1)
        table = np.array(draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                                       min_size=m, max_size=m)), dtype=np.int32)
        zero, identity = 0, None
        table[0, :] = table[:, 0] = 0
    nonzero = [s for s in range(m) if s != zero]
    if nonzero:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.sampled_from(nonzero)), draw(st.sampled_from(nonzero))
            table[i, j] = draw(st.integers(0, m - 1))
    if identity is not None and draw(st.booleans()):
        identity = None
    return table, zero, identity


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=perturbed_tables())
def test_validate_matches_index_order_route(case):
    # Light's test over the widest-first generators decides associativity as
    # the index-order scan does, and a failure is named by that scan's witness
    table, zero, identity = case
    assert TS.validate(table, zero, identity) == TS.validate_by_index_order(
        table, zero, identity
    )


def test_generating_sets_stay_small():
    I5 = i_k(5).T
    perm = np.random.default_rng(5).permutation(len(I5))
    relabelled = np.empty_like(I5)
    relabelled[np.ix_(perm, perm)] = perm[I5]
    for arr in (i_k(4).T, I5, relabelled):
        gens = F._semigroup_generators(arr)
        assert len(gens) <= 8
        # the first candidate is the lowest row with the most distinct entries
        width = [len(set(row)) for row in arr.tolist()]
        assert gens[0] == width.index(max(width))
        assert TS.generated(arr, gens) == len(arr)


@pytest.mark.parametrize("seed", [1, 2])
def test_validate_finds_defects_in_every_row_block(seed):
    # the kernels step through BLOCK rows at a time: a defect in the second
    # and in the last, partial, block must be named as the whole-table scan
    # names it, with its row counted from the top of the table
    S = relabeled(i_k(4), random.Random(seed))
    m = S.m
    assert m > 3 * F.BLOCK and m % F.BLOCK
    rng = random.Random(seed)
    for lo in (F.BLOCK, m - m % F.BLOCK):
        # a defect is often witnessed from an earlier row: 32 draws, so that
        # some are witnessed inside the block
        rows = set()
        for _ in range(32):
            i, j = rng.randrange(lo, min(lo + F.BLOCK, m)), rng.randrange(m)
            if S.zero in (i, j):
                continue
            table = S.T.copy()
            table[i, j] = (table[i, j] + rng.randrange(1, m)) % m
            diag = TS.validate_by_index_order(table, S.zero)
            assert TS.validate(table, S.zero) == diag
            if diag.startswith("not associative: witness ("):
                rows.add(int(diag.split("(")[1].split(",")[0]))
        assert any(lo <= x < lo + F.BLOCK for x in rows)


def test_reading_i5_allocates_under_two_tables(theorem_checks_off):
    # beside the table, the reader and the checks hold O(BLOCK m) scratch and
    # one Boolean m x m matrix at a time: an allocation count, so it repeats exactly
    S = i_k(5)
    text = S.to_text()
    tracemalloc.start()
    try:
        R = F.MulTable.from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (R.T == S.T).all() and R.names == S.names
    assert peak <= 2 * S.T.nbytes


def test_multable_rejects_bad_table():
    with pytest.raises(F.TableError):
        F.MulTable([[0, 0], [1, 1]], 0)


# ---------------------------------------------------------------------------
# serialization

def test_text_round_trip():
    for S in (i_k(2), b2_z2(), no_meet(), chain(3)):
        R = F.MulTable.from_text(S.to_text())
        assert (R.T == S.T).all()
        assert R.zero == S.zero
        assert R.names == S.names
        assert R.find_identity() == S.find_identity()


@pytest.mark.parametrize(
    "name", ["one #1", "o  ne", " one", "one ", "o\tne", "one\nelements 1 zero 0"]
)
def test_to_text_refuses_names_it_cannot_write_back(name):
    S = F.MulTable([[0, 0], [0, 1]], 0, 1, ["zero", name])
    with pytest.raises(F.TableError, match="name of element 1"):
        S.to_text()


def test_from_text_comments_and_defaults():
    text = """
    # two element chain
    elements 2 zero 0 identity 1
    0 0   # bottom row
    0 1
    name 1 top
    """
    S = F.MulTable.from_text(text)
    assert S.m == 2 and S.zero == 0 and S.identity == 1
    assert S.name(0) == "s0" and S.name(1) == "top"


def test_from_text_errors():
    bad = [
        "0 0\n0 1\n",                              # row before header
        "name 0 x\n",                              # missing header
        "elements 2 zero 0\nelements 2 zero 0\n",  # duplicate header
        "elements 2 foo 0\n0 0\n0 1\n",            # bad header
        "elements 2 zero 0\n0 0 0\n0 1\n",         # bad row length
        "elements 2 zero 0\n0 0\n",                # missing row
    ]
    for text in bad:
        with pytest.raises(F.TableError):
            F.MulTable.from_text(text)


# spellings of an entry v, and tokens that are not one entry of int32
SPELLINGS = ["%d", "+%d", "0%d", "00%d", "%d "]
ODD_TOKENS = ["-0", "1_0", "\u0663", "2147483647", "2147483648", "-2147483649",
              str(2 ** 63), str(2 ** 64), "-" + str(2 ** 64), "1-2", "-", "+", "x", "1e3"]
SEPARATORS = [" ", "  ", "\t", " \t ", "\v", "\xa0", "\x1c"]
TRAILERS = ["", "", "", " x", ",", " -", " +", " 1", "  # 1 2", "# x"]


def fuzzed_row(row, rng):
    tokens = []
    for v in row:
        if rng.random() < 0.04:
            tokens.append(rng.choice(ODD_TOKENS))
        elif rng.random() < 0.3:
            tokens.append(rng.choice(SPELLINGS) % v)
        else:
            tokens.append(str(v))
    return rng.choice(SEPARATORS).join(tokens) + rng.choice(TRAILERS)


def from_text_outcome(text):
    try:
        S = F.MulTable.from_text(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return "ok", S.T.tolist(), S.zero, S.identity, S.names


def test_row_fast_path_matches_token_path(monkeypatch):
    # from_text reads a row of ASCII digits and spaces with numpy's C parser
    # and any other row token by token; both must give the same table, or the
    # same error, on every spelling of a row
    rng = random.Random(23)
    base = F.symmetric_inverse_monoid(2).to_text().splitlines()
    head, rows, names = base[0], base[1:8], base[8:]
    texts = []
    for _ in range(1500):
        odd = [fuzzed_row(map(int, r.split()), rng) if rng.random() < 0.4 else r
               for r in rows]
        texts.append("\n".join([head] + odd + names) + "\n")
    fast = [from_text_outcome(t) for t in texts]
    taken = []
    digit_row = F._digit_row
    monkeypatch.setattr(F, "_digit_row", lambda line: taken.append(line) or None)
    assert [from_text_outcome(t) for t in texts] == fast
    # the fuzz reaches both paths, and tables as well as errors
    assert sum(digit_row(line) is not None for line in taken) > 1000
    assert sum(digit_row(line) is None for line in taken) > 1000
    assert any(o[0] == "ok" for o in fast)
    messages = {o[1].split(": ", 1)[-1] for o in fast if o[0] == "TableError"}
    assert {"entries must be integers", "entries must fit in int32",
            "expected 7 entries"} <= messages


LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\x1c", "\x85", "\u2028"]


def test_sliced_reader_splits_as_splitlines(monkeypatch):
    # every slice size puts a cut at every position of the text, so each
    # line break falls at, just before and just after some cut; the reader
    # numbers lines as splitlines does and skips those only a comment fills
    rng = random.Random(31)
    pieces = LINE_BREAKS + ["7", "0 1", " ", "# c"]
    texts = ["", "\n", "\r\n\r\n", "a\r\nb", "\r\n\n\r", "#\n a # b\r\n"]
    texts += ["".join(rng.choice(pieces) for _ in range(rng.randrange(1, 16)))
              for _ in range(150)]
    for text in texts:
        whole = [(i, raw, raw.split("#", 1)[0].strip())
                 for i, raw in enumerate(text.splitlines(), 1)]
        whole = [item for item in whole if item[2]]
        for size in range(1, len(text) + 2):
            monkeypatch.setattr(stonedual, "SLICE", size)
            assert list(stonedual.read_lines(text)) == whole, (text, size)
            # an open file comes one readline(SLICE) at a time, which can
            # end between CR and LF, or inside a character of its bytes; it
            # reads as the text does
            with io.StringIO(text, newline="") as fh:
                assert list(stonedual.read_lines(fh)) == whole, (text, size)
            with io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8") as fh:
                assert list(stonedual.read_lines(fh)) == whole, (text, size)


def test_file_reader_names_a_bad_byte_at_its_offset(monkeypatch):
    # a file's bytes are decoded a readline(SLICE) at a time; one that does
    # not decode is reported as bytes.decode reports it in the whole file
    for data in (b"0 1\n\xff 2", "\u20ac\r\n".encode() * 3 + b"\xe2\x82", b"7\n\xed\xa0\x80"):
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode()
        for size in range(1, len(data) + 2):
            monkeypatch.setattr(stonedual, "SLICE", size)
            with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
                with pytest.raises(ValueError) as got:
                    list(stonedual.read_lines(fh))
            assert str(got.value) == str(whole.value), (data, size)


def test_sliced_reader_reads_tables_alike(monkeypatch):
    text = i_k(3).to_text().replace("\n", "\r\n")
    bad = text.replace("\r\n0 0", "\r\n0 x", 1)
    whole = [from_text_outcome(t) for t in (text, bad)]
    assert whole[0][0] == "ok" and whole[1][0] == "TableError"
    for size in (1, 2, 5, 64, 1000):
        monkeypatch.setattr(stonedual, "SLICE", size)
        assert [from_text_outcome(t) for t in (text, bad)] == whole


def test_short_body_holds_no_table(tmp_path):
    # a header that promises 2000 rows before a body of one is refused by the
    # row count, from a str and from a file alike, without an m x m table:
    # the table grows with the rows that come
    text = "elements 2000 zero 0\n" + " ".join(["0"] * 2000) + "\n"
    path = tmp_path / "short.tbl"
    path.write_text(text)
    with open(path) as fh:
        for source in (text, fh):
            tracemalloc.start()
            with pytest.raises(F.TableError, match="^expected 2000 rows, got 1$"):
                F.MulTable.from_text(source)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 1_000_000, (source, peak)


# ---------------------------------------------------------------------------
# order, meets, joins against the partial-injection oracle

def oracle_leq(f, g):
    return all(q < 0 or g[p] == q for p, q in enumerate(f))


def oracle_meet(f, g):
    return tuple(q if q >= 0 and g[p] == q else -1 for p, q in enumerate(f))


def oracle_join(f, g):
    k = len(f)
    h = []
    for p in range(k):
        if f[p] >= 0 and g[p] >= 0 and f[p] != g[p]:
            return None
        h.append(f[p] if f[p] >= 0 else g[p])
    taken = [q for q in h if q >= 0]
    if len(set(taken)) != len(taken):
        return None
    return tuple(h)


def map_of_name(name, k):
    """The map that an I(k) element's name [p>q,...] writes, -1 where undefined."""
    pairs = dict(map(int, pair.split(">")) for pair in name[1:-1].split(",") if pair)
    return tuple(pairs.get(p, -1) for p in range(k))


def test_ik_order_meet_join_match_oracle():
    I4 = relabeled(i_k(4), random.Random(5))
    for k, S in ((2, i_k(2)), (3, i_k(3)), (4, i_k(4)), (4, I4)):
        # element ids are arbitrary: read each element's map off its name
        maps = [map_of_name(S.name(a), k) for a in range(S.m)]
        index = {f: i for i, f in enumerate(maps)}
        assert len(index) == S.m, "each element names its own map"
        for a, f in enumerate(maps):
            for b, g in enumerate(maps):
                assert S.leq(a, b) == oracle_leq(f, g)
                assert S.meet(a, b) == index[oracle_meet(f, g)]
                j = oracle_join(f, g)
                assert S.join(a, b) == (None if j is None else index[j])


def test_ik_mul_inv_dom_ran_match_oracle():
    S = i_k(3)
    maps = [map_of_name(S.name(a), 3) for a in range(S.m)]
    index = {f: i for i, f in enumerate(maps)}
    rng = random.Random(0)
    for _ in range(2000):
        a, b = rng.randrange(S.m), rng.randrange(S.m)
        f, g = maps[a], maps[b]
        comp = tuple(f[g[p]] if g[p] >= 0 else -1 for p in range(3))
        assert S.mul(a, b) == index[comp]
    for a, f in enumerate(maps):
        inv = [-1, -1, -1]
        for p, q in enumerate(f):
            if q >= 0:
                inv[q] = p
        assert S.inverse(a) == index[tuple(inv)]
        dom = tuple(p if f[p] >= 0 else -1 for p in range(3))
        ran = tuple(p if p in f else -1 for p in range(3))
        assert S.dom[a] == index[dom] and S.ran[a] == index[ran]


def test_order_characterizations_agree():
    # s <= t iff s = t d(s) iff s = r(s) t iff s = t e for some idempotent e
    for S in (i_k(2), b2_z2(), clifford_witness(), no_meet()):
        for s in range(S.m):
            for t in range(S.m):
                ours = S.leq(s, t)
                assert ours == (S.mul(t, S.dom[s]) == s)
                assert ours == (S.mul(S.ran[s], t) == s)
                assert ours == any(S.mul(t, e) == s for e in S.E)


def test_meet_is_glb_and_join_is_lub():
    for name, S in meet_corpus().items():
        for s in range(S.m):
            for t in range(S.m):
                mt = S.meet(s, t)
                lows = [x for x in range(S.m) if S.leq(x, s) and S.leq(x, t)]
                assert mt is not None, name
                assert mt in lows and all(S.leq(x, mt) for x in lows), name
                jn = S.join(s, t)
                ups = [x for x in range(S.m) if S.leq(s, x) and S.leq(t, x)]
                if jn is None:
                    assert not any(
                        all(S.leq(u, x) for x in ups) for u in ups
                    ), name
                else:
                    assert jn in ups and all(S.leq(jn, x) for x in ups), name


def test_multiplication_preserves_meets():
    # a (s ^ t) = as ^ at holds in any inverse semigroup when the meets exist
    for name, S in meet_corpus().items():
        rng = random.Random(11)
        for _ in range(300):
            a, s, t = (rng.randrange(S.m) for _ in range(3))
            mt = S.meet(s, t)
            assert S.mul(a, mt) == S.meet(S.mul(a, s), S.mul(a, t)), name
            assert S.mul(mt, a) == S.meet(S.mul(s, a), S.mul(t, a)), name


def test_missing_meet():
    S = no_meet()
    q, g = S.names.index("q"), S.names.index("g")
    assert S.meet(q, g) is None
    assert S.join(S.names.index("u"), S.names.index("v")) is None
    assert not F._meet_semigroup(S)
    assert all(F._meet_semigroup(S) for S in meet_corpus().values())


def test_join_of_set():
    C = cube(3)
    assert C.join_of_set([]) == 0
    assert C.join_of_set([1, 2, 4]) == 7
    assert C.join_of_set([3, 4]) == 7
    S = i_k(2)
    e0, e1 = S.names.index("[0>0]"), S.names.index("[1>1]")
    assert S.join_of_set([e0, e1]) == S.names.index("[0>0,1>1]")
    assert S.join_of_set([e0, S.names.index("[0>1]")]) is None


def test_compat_matrix_on_i5_allocates_under_half_a_table():
    # the Boolean matrix is a quarter of the int32 table, and its two gathers
    # take BLOCK rows at a time: an allocation count, so it repeats exactly
    S = i_k(5)
    tracemalloc.start()
    try:
        C = S.compat_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole = S.is_idem[S.T[S.inv, :]] & S.is_idem[S.T[:, S.inv]]
    assert (C == whole).all()
    assert peak <= S.T.nbytes / 2


def test_compatible_and_orthogonal():
    S = i_k(2)
    e0 = S.names.index("[0>0]")
    e1 = S.names.index("[1>1]")
    a = S.names.index("[0>1]")
    assert S.compatible(e0, e1) and S.orthogonal(e0, e1)
    assert not S.compatible(e0, a)
    # compatible means s^-1 t and s t^-1 are idempotent
    for T in (S, b2_z2()):
        for s in range(T.m):
            for t in range(T.m):
                want = T.is_idem[T.mul(T.inverse(s), t)] and T.is_idem[
                    T.mul(s, T.inverse(t))
                ]
                assert T.compatible(s, t) == want


def test_zero_minimal_and_minset():
    C = cube(3)
    assert C.zero_minimal() == [1, 2, 4]
    assert C.minset(7) == {1, 2, 4}
    assert C.minset(5) == {1, 4}
    S = i_k(2)
    assert len(S.zero_minimal()) == 4
    assert len(i_k(3).zero_minimal()) == 9
    ident = S.names.index("[0>0,1>1]")
    swap = S.names.index("[0>1,1>0]")
    assert S.minset(ident) == {S.names.index("[0>0]"), S.names.index("[1>1]")}
    assert S.minset(swap) == {S.names.index("[0>1]"), S.names.index("[1>0]")}


# ---------------------------------------------------------------------------
# arrow relation and covers

def test_arrow_routes_agree():
    rng = random.Random(23)
    for name, S in meet_corpus().items():
        nz = S.nonzero()
        for _ in range(120):
            a = rng.choice(nz)
            B = rng.sample(range(S.m), rng.randrange(0, min(S.m, 5)))
            assert TS.arrow_enum(S, a, B) == TS.arrow_minset(S, a, B), name


def test_arrow_zero_source_rejected():
    S = cube(2)
    with pytest.raises(F.TableError):
        TS.arrow_enum(S, S.zero, [1])
    with pytest.raises(F.TableError):
        TS.arrow_minset(S, S.zero, [1])


def test_arrow_with_missing_meet():
    S = no_meet()
    q, g = S.names.index("q"), S.names.index("g")
    # enumeration hits the missing meet q ^ g; the 0-minimal route is fine
    with pytest.raises(F.TableError):
        TS.arrow_enum(S, q, [g])
    assert TS.arrow_minset(S, q, [g])
    # 0-simplicity reads the components alone: u and v lie in two, and the
    # table has four tightly closed ideals
    assert F.is_zero_simplifying(S) is False
    assert len(F.tightly_closed_ideals(S)) == 4


def test_covers():
    C = cube(3)
    assert TS.is_cover(C, 7, [1, 2, 4])
    assert TS.is_cover(C, 7, [7])
    assert TS.is_cover(C, 3, [1, 2])
    assert not TS.is_cover(C, 7, [1, 2])
    assert not TS.is_cover(C, 3, [1, 4])  # 4 is not below 3
    S = i_k(2)
    ident = S.names.index("[0>0,1>1]")
    swap = S.names.index("[0>1,1>0]")
    assert TS.is_cover(S, ident, [S.names.index("[0>0]"), S.names.index("[1>1]")])
    assert not TS.is_cover(S, swap, [S.names.index("[0>1]")])
    assert TS.is_cover(S, swap, [S.names.index("[0>1]"), S.names.index("[1>0]")])


def test_cover_collapse_witness():
    # in the Clifford witness both 1 and g are covered by {e}: the engine of
    # the non-injective separative collapse
    S = clifford_witness()
    e = S.names.index("e")
    one = S.names.index("1")
    g = S.names.index("g")
    assert TS.is_cover(S, one, [e])
    assert TS.is_cover(S, g, [e])


def test_set_cover():
    C = cube(3)
    assert TS.is_set_cover(C, [3, 5], [1])
    assert not TS.is_set_cover(C, [3, 5], [4])
    assert TS.is_set_cover(C, [0], [])  # zero members are skipped


# ---------------------------------------------------------------------------
# constructions

def test_symmetric_inverse_monoid_sizes(monkeypatch):
    assert [i_k(k).m for k in (1, 2, 3, 4)] == [2, 7, 34, 209]
    with pytest.raises(ValueError):
        F.symmetric_inverse_monoid(0)
    # the element limit bounds k: Brandt's count refuses I(6) before any of
    # its 13327 bisections is listed, in a few small arrays
    monkeypatch.delenv("STONEDUAL_MAX_ELEMENTS", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(F.SizeLimitError, match=r"13327 elements.*STONEDUAL_MAX_ELEMENTS"):
            F.symmetric_inverse_monoid(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000, peak


def test_symmetric_inverse_monoid_is_refused_before_its_groupoid(monkeypatch):
    # I(40)'s pair groupoid would hold 1600 arrows and 64000 composites, and
    # its validation 1600 x 1600 arrays; Brandt's count refuses it first
    monkeypatch.delenv("STONEDUAL_MAX_ELEMENTS", raising=False)
    tracemalloc.start()
    try:
        refused = r"^bisection semigroup has more than 10\^52 elements"
        with pytest.raises(F.SizeLimitError, match=refused):
            F.symmetric_inverse_monoid(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_symmetric_inverse_monoid_text_matches_the_corpus(theorem_checks_off):
    # I(2) and I(3) as tables/ holds them, and I(4) and I(5) as the
    # benchmark's own generator writes them, byte for byte
    for k in (2, 3):
        assert i_k(k).to_text() == (TABLES / ("i%d.tbl" % k)).read_text()
    golden = json.loads((TABLES.parent / "perfbench" / "golden.json").read_text())
    for k in (4, 5):
        digest = hashlib.sha256(i_k(k).to_text().encode()).hexdigest()
        assert digest == golden["generated"]["i%d" % k]


def test_symmetric_inverse_monoid_five():
    assert F.symmetric_inverse_monoid(5).m == 1546


def test_ik_names():
    S = i_k(2)
    assert S.name(S.zero) == "[]"
    assert S.name(S.identity) == "[0>0,1>1]"


def test_direct_product():
    P = i2_x_i2()
    assert P.m == 49
    assert P.find_identity() is not None
    Q = TS.direct_product(chain(2), chain(2))
    assert Q.m == 4 and Q.find_identity() == 3


def test_zero_direct_union():
    U = union_of_chains()
    assert U.m == 3
    assert U.names == ["0", "L:c1", "R:c1"]
    assert U.mul(1, 2) == 0 and U.mul(2, 1) == 0


def test_rees_matrix_variant():
    assert b2().m == 5
    assert b2_z2().m == 9
    assert b2().find_identity() is None
    with pytest.raises(F.TableError):
        TS.rees_b_r(b2(), 2)  # base must be a monoid
    # B_2 relations: a a^-1 = e11, a^-1 a = e22, a^2 = 0
    S = b2()
    a = S.names.index("(1|1|2)")
    assert S.name(S.mul(a, S.inverse(a))) == "(1|1|1)"
    assert S.name(S.mul(S.inverse(a), a)) == "(2|1|2)"
    assert S.mul(a, a) == S.zero


def test_idempotent_subtable():
    E, emb = F.idempotent_subtable(i_k(2))
    assert E.m == 4
    assert sorted(int(E._below_count[s]) for s in range(E.m)) == [1, 2, 2, 4]
    assert F.predicates(E) == F.predicates(cube(2))
    assert [i_k(2).name(e) for e in emb] == [E.name(i) for i in range(E.m)]


def test_subtable_rank_one_is_b2():
    S = i_k(2)
    low = [s for s in range(S.m) if S._below_count[s] <= 2]
    R, emb = F.subtable(S, low)
    assert R.m == 5
    assert F.predicates(R) == F.predicates(b2())
    assert F.is_congruence_free(R)
    with pytest.raises(F.TableError):
        F.subtable(S, [S.names.index("[0>1]")])  # not closed under inverse


# ---------------------------------------------------------------------------
# predicates

def test_predicates_i2():
    assert F.predicates(i_k(2)) == {
        "fundamental": True,
        "zero_simple": False,
        "zero_disjunctive": True,
        "e_star_unitary": True,
        "unambiguous": True,
        "meet_semigroup": True,
        "distributive": True,
        "boolean": True,
    }


def test_predicates_i3():
    p = F.predicates(i_k(3))
    assert p["fundamental"] and p["boolean"] and p["distributive"]
    assert p["zero_disjunctive"] and p["meet_semigroup"]
    assert not p["zero_simple"]
    # a nonzero idempotent sits under a non-identity permutation
    assert not p["e_star_unitary"]
    # two overlapping incomparable rank-2 idempotents
    assert not p["unambiguous"]


def test_predicates_b2():
    assert F.predicates(b2()) == {
        "fundamental": True,
        "zero_simple": True,
        "zero_disjunctive": True,
        "e_star_unitary": True,
        "unambiguous": True,
        "meet_semigroup": True,
        "distributive": False,
        "boolean": False,
    }


def test_predicates_adjoined_z2():
    assert F.predicates(adjoined_z2()) == {
        "fundamental": False,
        "zero_simple": True,
        "zero_disjunctive": True,
        "e_star_unitary": True,
        "unambiguous": True,
        "meet_semigroup": True,
        "distributive": True,
        "boolean": True,
    }


def test_predicates_clifford_witness():
    assert F.predicates(clifford_witness()) == {
        "fundamental": False,
        "zero_simple": False,
        "zero_disjunctive": False,
        "e_star_unitary": False,
        "unambiguous": True,
        "meet_semigroup": True,
        "distributive": True,
        "boolean": False,
    }


def test_predicates_semilattices():
    assert F.predicates(chain(2))["boolean"]
    p3 = F.predicates(chain(3))
    assert p3["distributive"] and not p3["boolean"] and not p3["zero_disjunctive"]
    for k in (2, 3):
        assert F.predicates(cube(k))["boolean"]
    assert F.predicates(diamond()) == F.predicates(cube(2))
    pu = F.predicates(union_of_chains())
    assert not pu["distributive"] and pu["meet_semigroup"]


def oracle_predicates(S):
    """The idempotent and join predicates straight from their definitions."""
    E = S.E
    E0 = [e for e in E if e != S.zero]
    compatible_pairs = [
        (a, b) for a in range(S.m) for b in range(S.m) if S.compatible(a, b)
    ]
    distributive = all(
        S.join(a, b) is not None
        and all(
            S.mul(c, S.join(a, b)) == S.join(S.mul(c, a), S.mul(c, b))
            and S.mul(S.join(a, b), c) == S.join(S.mul(a, c), S.mul(b, c))
            for c in range(S.m)
        )
        for a, b in compatible_pairs
    )
    return {
        "zero_disjunctive": all(
            any(S.leq(g, f) and S.mul(g, e) == S.zero for g in E0)
            for f in E0
            for e in E0
            if e != f and S.leq(e, f)
        ),
        "e_star_unitary": all(
            S.is_idem[s] for e in E0 for s in range(S.m) if S.leq(e, s)
        ),
        "unambiguous": all(
            S.mul(e, f) == S.zero or S.leq(e, f) or S.leq(f, e)
            for e in E0
            for f in E0
        ),
        "distributive": distributive,
        "boolean": distributive
        and all(
            any(
                S.leq(g, f) and S.mul(g, e) == S.zero and S.join(g, e) == f
                for g in E
            )
            for f in E
            for e in E
            if S.leq(e, f)
        ),
    }


def test_predicates_match_their_definitions():
    corpus = dict(meet_corpus())
    corpus.update({
        "no_meet": no_meet(), "I(3)": i_k(3), "I(2)xI(2)": i2_x_i2(),
        "relabelled I(3)": relabeled(i_k(3), random.Random(2)),
        "M3": TS.m3(), "N5": TS.n5(),
    })
    for name, S in corpus.items():
        got = F.predicates(S)
        want = oracle_predicates(S)
        assert {key: got[key] for key in want} == want, name


def test_predicates_products():
    p = F.predicates(i2_x_i2())
    assert p["boolean"] and p["fundamental"] and p["zero_disjunctive"]
    assert not p["zero_simple"] and not p["e_star_unitary"] and not p["unambiguous"]
    pz = F.predicates(b2_z2())
    assert not pz["fundamental"] and pz["zero_simple"]
    assert not pz["distributive"]


# ---------------------------------------------------------------------------
# mu and congruences

def set_partitions(n):
    def rec(i, blocks):
        if i == n:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def class_ids(blocks, m):
    out = [0] * m
    for cid, b in enumerate(blocks):
        for x in b:
            out[x] = cid
    return out


def is_congruence(S, cls):
    for x in range(S.m):
        for y in range(x + 1, S.m):
            if cls[x] != cls[y]:
                continue
            for s in range(S.m):
                if cls[S.mul(s, x)] != cls[S.mul(s, y)]:
                    return False
                if cls[S.mul(x, s)] != cls[S.mul(y, s)]:
                    return False
    return True


def separates_idempotents(S, cls):
    ids = [cls[e] for e in S.E]
    return len(set(ids)) == len(ids)


def test_mu_is_maximum_idempotent_separating_congruence():
    # exhaustive over all partitions for the small fixtures
    for S in (adjoined_z2(), clifford_witness(), chain(3), diamond(), b2()):
        mu = F.mu_classes(S)
        assert is_congruence(S, mu) and separates_idempotents(S, mu)
        for blocks in set_partitions(S.m):
            cls = class_ids(blocks, S.m)
            if is_congruence(S, cls) and separates_idempotents(S, cls):
                # every such congruence refines mu
                for x in range(S.m):
                    for y in range(S.m):
                        if cls[x] == cls[y]:
                            assert mu[x] == mu[y]


def test_mu_classes_b2_z2():
    S = b2_z2()
    mu = F.mu_classes(S)
    assert is_congruence(S, mu) and separates_idempotents(S, mu)
    assert len(set(mu)) == 5
    for s in range(S.m):
        nm = S.name(s)
        if "|1|" in nm:
            assert mu[s] == mu[S.names.index(nm.replace("|1|", "|g|"))]


def fixture_tables():
    tables = dict(meet_corpus())
    tables.update(TS.boolean_corpus())
    tables["I(3)"], tables["I(4)"] = i_k(3), i_k(4)
    tables["relabelled I(4)"] = relabeled(i_k(4), random.Random(3))
    for path in sorted(TABLES.glob("*.tbl")):
        tables[path.name] = F.MulTable.from_text(path.read_text())
    return tables


def test_mu_classes_and_principal_ideals_match_np_unique():
    # the library labels rows and marks S s without np.unique, which imports
    # numpy.ma on numpy 2.4; np.unique stays here as the reference
    for name, S in fixture_tables().items():
        sig = S.T[S.T[:, S.E], S.inv[:, None]]
        labels = np.unique(sig, axis=0, return_inverse=True)[1].ravel().tolist()
        assert F.mu_classes(S) == labels, name
        for s in range(S.m):
            mask = np.zeros(S.m, dtype=bool)
            mask[S.T[np.unique(S.T[:, s])]] = True
            assert TS.principal_ideal(S, s) == frozenset(np.flatnonzero(mask).tolist()), (name, s)


def test_fundamental_iff_mu_trivial():
    for name, S in meet_corpus().items():
        assert F._fundamental(S) == (len(set(F.mu_classes(S))) == S.m), name


def test_principal_congruence_is_smallest():
    for S in (adjoined_z2(), clifford_witness(), chain(3), b2()):
        congruences = [
            class_ids(blocks, S.m)
            for blocks in set_partitions(S.m)
            if is_congruence(S, class_ids(blocks, S.m))
        ]
        for a in range(S.m):
            for b in range(a + 1, S.m):
                pc = principal_congruence(S, a, b)
                assert is_congruence(S, pc) and pc[a] == pc[b]
                for cls in congruences:
                    if cls[a] == cls[b]:
                        for x in range(S.m):
                            for y in range(S.m):
                                if pc[x] == pc[y]:
                                    assert cls[x] == cls[y]


def test_congruence_free():
    assert F.is_congruence_free(chain(2))
    assert F.is_congruence_free(b2())
    assert not F.is_congruence_free(chain(3))
    assert not F.is_congruence_free(i_k(2))
    assert not F.is_congruence_free(b2_z2())
    assert not F.is_congruence_free(adjoined_z2())
    assert not F.is_congruence_free(clifford_witness())
    # above the size where the enumeration oracle runs, the answer still comes
    assert not F.is_congruence_free(i_k(4))


# ---------------------------------------------------------------------------
# ideals and the 0-simplifying property

def test_ideals():
    assert sorted(len(I) for I in TS.all_ideals(i_k(2))) == [1, 5, 7]
    assert sorted(len(I) for I in TS.all_ideals(cube(2))) == [1, 2, 2, 3, 4]
    for S in (i_k(2), cube(3), b2_z2()):
        for I in TS.all_ideals(S):
            assert S.zero in I
            for s in I:
                for t in range(S.m):
                    assert S.mul(s, t) in I and S.mul(t, s) in I


def test_tightly_closed_ideals():
    U = union_of_chains()
    closed = F.tightly_closed_ideals(U)
    assert len(closed) == 4  # {0}, {0,a}, {0,b}, everything
    assert sorted(len(I) for I in closed) == [1, 2, 2, 3]
    assert F.tightly_closed_ideals(i_k(3)) == [
        frozenset([i_k(3).zero]),
        frozenset(range(i_k(3).m)),
    ]
    # rank ideals of I(3) are not tightly closed: every 0-minimal element
    # below a higher-rank s already sits inside
    S = i_k(3)
    rank1 = min((I for I in TS.all_ideals(S) if len(I) > 1), key=len)
    assert not TS.is_tightly_closed_ideal(S, rank1)


def test_zero_simplifying():
    assert F.is_zero_simplifying(i_k(3))
    assert F.is_zero_simplifying(b2())
    assert F.is_zero_simplifying(chain(3))
    assert F.is_zero_simplifying(adjoined_z2())
    assert F.is_zero_simplifying(clifford_witness())
    assert not F.is_zero_simplifying(i2_x_i2())
    assert not F.is_zero_simplifying(union_of_chains())


def test_product_factor_ideal_is_tightly_closed():
    P = i2_x_i2()
    left = frozenset(
        a * i_k(2).m + i_k(2).zero for a in range(i_k(2).m)
    )
    assert left in TS.all_ideals(P)
    assert TS.is_tightly_closed_ideal(P, left)


def random_tables(seed):
    """Seeded random corpora: inverse subsemigroups of I(3) and I(4), and
    Clifford semigroups with Z/2 on an up-set, some of them without meets."""
    rng = random.Random(seed)
    for k in (3, 4):
        for _ in range(40):
            yield "sub I(%d)" % k, TS.random_inverse_subsemigroup(i_k(k), rng, rng.randrange(1, 4))
    for _ in range(80):
        yield "clifford", TS.random_clifford(rng)


def test_phi_and_components_match_the_definitions_on_random_tables(theorem_checks_off):
    # the library decides meets from phi, ideals and 0-simplicity from the
    # 0-minimal components, and 0-disjunctivity from supports; each against
    # its definition, on tables of every kind the theorems cover
    missing = 0
    for name, S in random_tables(15):
        counted = TS.meet_table_by_counting(S).tolist()
        meets = [[S.meet(a, b) for b in range(S.m)] for a in range(S.m)]
        assert meets == [[None if v < 0 else v for v in row] for row in counted], name
        assert F._meet_semigroup(S) == (None not in sum(meets, [])), name
        missing += not F._meet_semigroup(S)
        if S.m <= 60:
            assert F.tightly_closed_ideals(S) == TS.tightly_closed_ideals_by_enumeration(S), name
        every = S.m >= 2 and all(len(TS.principal_ideal(S, s)) == S.m for s in S.nonzero())
        assert F._zero_simple(S) == every, name
        assert F._zero_disjunctive(S) == TS.zero_disjunctive_by_idempotents(S), name
        assert F.is_zero_simplifying(S) == TS.zero_simplifying_by_preorder(S), name
    assert missing  # the corpus reaches tables without some meets


def test_deciding_meets_on_i5_builds_no_meet_table(theorem_checks_off):
    # phi is one vector of m entries beside a few |E| x m masks, where the
    # counting rule filled an int32 m x m table
    S = F.symmetric_inverse_monoid(5)
    tracemalloc.start()
    try:
        assert F._meet_semigroup(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < S.T.nbytes / 10


def parity_tables(seed):
    """The named fixtures, the meet and Boolean corpora, I(1)..I(4), and
    seeded random tables: 150 inverse subsemigroups of I(3), 100 of I(4)
    and 100 Clifford semigroups, some of them without meets."""
    rng = random.Random(seed)
    yield from meet_corpus().items()
    yield from TS.boolean_corpus().items()
    named = {
        "no_meet": no_meet(), "M3": TS.m3(), "N5": TS.n5(), "trivial": TS.trivial_monoid(),
        "chain1": chain(1), "cube1": cube(1), "I(2)xI(2)": i2_x_i2(),
        "relabelled I(3)": relabeled(i_k(3), random.Random(seed)),
    }
    yield from named.items()
    for k in range(1, 5):
        yield "I(%d)" % k, i_k(k)
    for k, count in ((3, 150), (4, 100)):
        for _ in range(count):
            yield "sub I(%d)" % k, TS.random_inverse_subsemigroup(i_k(k), rng, rng.randrange(1, 4))
    for _ in range(100):
        yield "clifford", TS.random_clifford(rng)


def test_boolean_by_counting_matches_the_definition(theorem_checks_off):
    # the library counts the local bisections of the 0-minimal groupoid; the
    # definition builds the join table and the compatible pairs
    tables = boolean = without_meets = 0
    for name, S in parity_tables(7):
        got = F._boolean(S)
        assert got == TS.boolean_by_definition(S), name
        tables += 1
        boolean += got
        without_meets += not F._meet_semigroup(S)
    assert tables >= 350 and boolean >= 80 and without_meets >= 10


def test_deciding_boolean_on_i5_builds_no_join_table(theorem_checks_off):
    # the count reads phi, the supports and the component labels: a few
    # vectors and |E| x m or 0-minimal x m masks beside the int32 m x m table
    S = F.symmetric_inverse_monoid(5)
    tracemalloc.start()
    try:
        assert F._boolean(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < S.T.nbytes / 10
    assert S._join is None and S._compat is None


# ---------------------------------------------------------------------------
# size guard

def test_size_limit(monkeypatch):
    monkeypatch.setenv("STONEDUAL_MAX_ELEMENTS", "100")
    with pytest.raises(F.SizeLimitError):
        F.symmetric_inverse_monoid(4)
    with pytest.raises(F.SizeLimitError):
        TS.direct_product(i_k(2), F.MulTable([[0] * 15] * 15, 0, check=False))
    monkeypatch.setenv("STONEDUAL_MAX_ELEMENTS", "2000")
    assert F.symmetric_inverse_monoid(4).m == 209


@pytest.mark.parametrize(
    "count, shown",
    [(2001, "2001"), (10**18 - 1, str(10**18 - 1)), (10**18, "more than 10^17"),
     (10**18 + 1, "more than 10^18"), (2**70, "more than 10^21")],
)
def test_size_limit_shows_long_counts_by_magnitude(count, shown):
    # a refused count of 19 or more digits is shown as a true lower bound
    with pytest.raises(F.SizeLimitError) as refused:
        F._check_size(count, "bisection semigroup")
    assert str(refused.value).startswith("bisection semigroup has %s elements," % shown)
