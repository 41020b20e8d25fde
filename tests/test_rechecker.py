"""The table hooks of tests/conftest.py re-prove each distinct input once:
a repeat, by value, compares its result with the one proved."""

import pytest

import conftest
from stonedual import finitesgp as F
import tests_support_tables as TS


def counted_hook(func):
    """The library function under func wrapped as a table hook, with its own
    memo, whose check records each run."""
    runs = []
    hook = conftest.RECHECKER.wrap(func.__wrapped__, lambda *args: runs.append(args))
    return hook, runs


def test_equal_tables_are_proved_once():
    hook, runs = counted_hook(F._boolean)
    S = TS.cube(2)
    twin = F.MulTable(S.T.copy(), S.zero, S.identity, S.names)
    assert twin is not S
    assert hook(S) is hook(twin) is True
    assert len(runs) == 1


def test_a_repeat_must_give_the_result_proved(monkeypatch):
    hook, runs = counted_hook(F.is_zero_simplifying)
    S = TS.cube(2)
    assert hook(S) is False  # one component per atom
    monkeypatch.setattr(F.MulTable, "minimal_components", lambda self: ([0, 0], 1))
    with pytest.raises(AssertionError, match="is_zero_simplifying gave another result"):
        hook(S)
    assert len(runs) == 1


def test_a_renamed_table_is_proved_again():
    # symmetric_inverse_monoid names its table after building it, so a
    # digest kept per table must follow the names
    hook, runs = counted_hook(F._boolean)
    S = TS.cube(2)
    S = F.MulTable(S.T, S.zero, S.identity)
    hook(S)
    hook(S)
    S.names = ["0", "x", "y", "1"]
    hook(S)
    assert len(runs) == 2
