"""The op-program runner every props battery shares.

A battery is a *state class*: ``State(**params)`` builds a fresh world,
``apply(op)`` interprets one op against it, ``check()`` judges the whole
world against the battery's reference, and two optional hooks --
``finish()`` after the last op, ``close()`` always -- end a run.  An op
is a tuple of four raw integers from ``random.Random(seed)``, which
``apply`` reads *modulo the state it finds* (a free child, a legal
position, a live rowid), so every op is total and every subsequence of
a program is itself a program.  That makes greedy delta-debugging
sound: a failing program is shrunk one op at a time, and the report is
a shell line that replays the minimal program under a debugger.
``every_conjunct_rerun`` is the lens the QUEL batteries share.
"""

import contextlib
import random
from unittest import mock

import pytest

from repro.quel.sources import IndexSource


def generate(seed, count):
    """*count* raw ops from *seed*."""
    rng = random.Random(seed)
    return [tuple(rng.randrange(1 << 16) for _ in range(4)) for _ in range(count)]


def run(state_class, ops, **params):
    """Run *ops* on a fresh ``state_class(**params)``, checking after
    every op.  Returns ``(failure message or None, the state)``."""
    state = state_class(**params)
    where = "initial state"
    try:
        state.check()
        for index, op in enumerate(ops):
            where = "op %d (%r)" % (index, op)
            state.apply(op)
            state.check()
        where = "finish"
        getattr(state, "finish", lambda: None)()
        return None, state
    except Exception as error:  # noqa: BLE001 -- any divergence is a failure
        return "%s: %s: %s" % (where, type(error).__name__, error), state
    finally:
        getattr(state, "close", lambda: None)()


def shrink(ops, fails):
    """Greedy delta-debugging: drop one op at a time while *fails* holds."""
    changed = True
    while changed:
        changed = False
        for index in range(len(ops)):
            candidate = ops[:index] + ops[index + 1:]
            if fails(candidate):
                ops = candidate
                changed = True
                break
    return ops


def replay(state_class, ops, **params):
    """Run *ops* once and raise ``AssertionError`` if they fail."""
    error, _ = run(state_class, [tuple(op) for op in ops], **params)
    assert error is None, error


def assert_passes(state_class, ops, **params):
    """Run *ops*; on failure shrink them and fail with the minimal
    program, its message and a replay line.  Returns the state the
    passing run ended in (closed), for batteries that count what it saw."""
    error, state = run(state_class, ops, **params)
    if error is None:
        return state
    minimal = shrink(
        ops, lambda candidate: run(state_class, candidate, **params)[0] is not None
    )
    call = "replay(%s, %r%s)" % (
        state_class.__name__, minimal,
        "".join(", %s=%r" % item for item in sorted(params.items())),
    )
    pytest.fail(
        "%s diverged from its reference in %d of %d ops.\n%s\nReplay: "
        "PYTHONPATH=src python -c \"from tests.props.program import replay; "
        "from %s import %s; %s\""
        % (state_class.__name__, len(minimal), len(ops),
           run(state_class, minimal, **params)[0],
           state_class.__module__, state_class.__name__, call)
    )


@contextlib.contextmanager
def every_conjunct_rerun():
    """The join as it would be if no index source answered a conjunct:
    while open, an ``IndexSource``'s ``answers`` read empty, so every
    conjunct is re-run on every candidate.  A statement's answer inside
    must equal its answer outside -- the lens on what sources decide."""
    nothing = property(lambda source: (), lambda source, answers: None)
    with mock.patch.object(IndexSource, "answers", nothing):
        yield
