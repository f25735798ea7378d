"""Every MDM holds the same values: in memory, on disk and on a replica.

A value the run encoder (``repro.storage.row``) cannot write -- an
integer past 64 bits, a rational whose parts are, a string that is not
UTF-8 -- is refused by coercion with ``TypeMismatchError`` wherever the
MDM keeps its rows.  A durable MDM once raised ``struct.error`` or
``UnicodeEncodeError`` from its log while an in-memory one kept it.
"""

from fractions import Fraction

import pytest

from repro.errors import TypeMismatchError
from repro.mdm.manager import MusicDataManager


@pytest.fixture(params=["in-memory", "durable"])
def mdm(request, tmp_path):
    path = None if request.param == "in-memory" else str(tmp_path / "db")
    mdm = MusicDataManager(path, with_cmn=False)
    mdm.schema.define_entity("WORK", [
        ("title", "string"), ("opus", "integer"), ("length", "rational"),
    ])
    yield mdm
    mdm.close()


def test_an_integer_past_64_bits_is_refused(mdm):
    with pytest.raises(TypeMismatchError):
        mdm.execute('append to WORK (title = "a", opus = 9223372036854775808)')
    mdm.execute('append to WORK (title = "b", opus = 9223372036854775807)')
    mdm.execute("range of w is WORK")
    assert mdm.retrieve("retrieve (w.title, w.opus)") == [
        {"w.title": "b", "w.opus": 2 ** 63 - 1}
    ]


def test_a_rational_or_a_string_no_store_holds_is_refused(mdm):
    work = mdm.schema.entity_type("WORK")
    with pytest.raises(TypeMismatchError):
        work.create(title="a", length=Fraction(1, 3 ** 50))
    with pytest.raises(TypeMismatchError):
        work.create(title="\ud800")
    assert len(work.table) == 0
