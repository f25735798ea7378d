"""Integers are compared exactly on every access path.

2**53 + 1 has no float of its own: keyed by ``float()``, an index put
it in 2**53's bucket, so ``where x.n = 9007199254740993`` answered
both rows through the hash index while the scan (``x.n + 0 = ...``)
answered one, and ``sort by x.n`` could not tell them apart.  Here the
hash index, the scan, the range selection and the sort must agree, in
memory and after a reopen, whose indexes are built from the loaded rows.
"""

import pytest

from repro.mdm.manager import MusicDataManager
from repro.storage.index import HashIndex

BIG = 2 ** 53
VALUES = [BIG + 1, BIG - 1, BIG + 2, BIG, BIG + 1]


@pytest.fixture(params=["in-memory", "reopened"])
def mdm(request, tmp_path):
    path = None if request.param == "in-memory" else str(tmp_path / "db")
    mdm = MusicDataManager(path, with_cmn=False)
    mdm.schema.define_entity("HASHED", [("n", "integer")])
    for value in VALUES:
        mdm.execute("append to HASHED (n = %d)" % value)
    if path is not None:
        mdm.close()
        mdm = MusicDataManager(path, with_cmn=False)
    yield mdm
    mdm.close()


def _ns(rows):
    return [row["x.n"] for row in rows]


@pytest.mark.parametrize("name, kind", [("HASHED", HashIndex)])
def test_the_index_the_scan_and_the_sort_agree(mdm, name, kind):
    mdm.execute("range of x is %s" % name)
    for value in sorted(set(VALUES)):
        indexed = _ns(mdm.retrieve("retrieve (x.n) where x.n = %d" % value))
        assert mdm.session.last_plan_object.label == "index"
        scanned = _ns(mdm.retrieve("retrieve (x.n) where x.n + 0 = %d" % value))
        assert mdm.session.last_plan_object.label == "scan"
        assert indexed == scanned == [value] * VALUES.count(value)
    table = mdm.schema.entity_type(name).table
    assert type(table.index_for("n")) is kind
    ascending = sorted(VALUES)
    assert _ns(mdm.retrieve("retrieve (x.n) sort by x.n")) == ascending
    assert _ns(mdm.retrieve(
        "retrieve (x.n) sort by x.n descending"
    )) == ascending[::-1]
    assert [row["n"] for row in table.sorted_by("n")] == ascending
    assert [row["n"] for row in table.select_range("n", BIG + 1, BIG + 2)] == [
        BIG + 1, BIG + 1, BIG + 2,
    ]
