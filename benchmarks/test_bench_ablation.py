"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each pair measures a mechanism against its absence:

- **Index pushdown** (section 5.2): QUEL equality selection with index
  candidate sets vs the heap scan the planner falls back to when the
  same predicate is written in a form no index can answer.
- **Sync sharing** (figure 14): chord-start computation through shared
  SYNC parents vs recomputing from voice streams.
- **Catalog indirection** (figure 10): the four-step GraphDef draw vs
  executing the same PostScript directly with in-process bindings.
- **Zero-run folding** (section 4.1): compaction of silence-heavy audio
  with the run-folding packer vs the naive varint stream.
"""

import numpy as np
import pytest

from repro.core.schema import Schema
from repro.quel.executor import QuelSession


@pytest.fixture(scope="module")
def indexed_schema():
    schema = Schema("ablate")
    schema.define_entity("NOTE", [("n", "integer"), ("pitch", "integer")])
    note_type = schema.entity_type("NOTE")
    for index in range(2000):
        note_type.create(n=index, pitch=40 + index % 50)
    return schema

_QUERY = "range of x is NOTE\nretrieve (x.pitch) where x.n = 1500"
# Same rows, but ``x.n + 0`` is not an attribute-equals-literal
# restriction, so the statement's shape -- not a switch -- forces the scan.
_QUERY_NON_SARGABLE = _QUERY.replace("x.n =", "x.n + 0 =")


def test_selection_with_index(benchmark, indexed_schema):
    session = QuelSession(indexed_schema)
    rows = benchmark(session.execute, _QUERY)
    assert len(rows) == 1
    assert session.last_plan_object.label == "index"


def test_selection_without_index(benchmark, indexed_schema):
    session = QuelSession(indexed_schema)
    rows = benchmark(session.execute, _QUERY_NON_SARGABLE)
    assert len(rows) == 1
    assert session.last_plan_object.label == "scan"


@pytest.fixture(scope="module")
def layout_catalog():
    from repro.cmn.schema import CmnSchema
    from repro.graphics.graphdef import GraphicsCatalog

    cmn = CmnSchema()
    catalog = GraphicsCatalog(cmn.schema)
    catalog.meta.sync()
    catalog.register_standard()
    stem = cmn.STEM.create(xpos=20, ypos=8, length=28, direction=1)
    return catalog, stem


def test_draw_via_catalog(benchmark, layout_catalog):
    catalog, stem = layout_catalog
    display = benchmark(catalog.draw, stem)
    assert len(display)


def test_draw_direct_postscript(benchmark, layout_catalog):
    from repro.graphics.graphdef import STEM_FUNCTION
    from repro.graphics.postscript import execute_postscript

    _, stem = layout_catalog
    bindings = {
        "xpos": stem["xpos"], "ypos": stem["ypos"],
        "length": stem["length"], "direction": stem["direction"],
    }
    state = benchmark(execute_postscript, STEM_FUNCTION, bindings)
    assert len(state.display)


@pytest.fixture(scope="module")
def quiet_audio():
    from repro.midi.events import EventList
    from repro.sound.synthesis import synthesize

    events = EventList()
    events.add_note(60, 80, 0, 0.0, 0.3)
    events.add_note(64, 80, 0, 2.0, 2.3)  # long silence between notes
    return synthesize(events, sample_rate=8000)


def test_compaction_with_run_folding(benchmark, quiet_audio):
    from repro.sound.compaction import compact_redundancy

    packed = benchmark(compact_redundancy, quiet_audio)
    assert len(packed) < quiet_audio.storage_bytes()


def test_compaction_naive_varints(benchmark, quiet_audio):
    """The ablated packer: one varint per sample, no run folding."""
    import struct

    from repro.sound.compaction import _zigzag

    def naive_pack(buffer):
        samples = buffer.samples.astype(np.int32)
        first = np.diff(samples, prepend=np.int32(0))
        second = np.diff(first, prepend=np.int32(0))
        zigzagged = _zigzag(second.astype(np.int64))
        out = bytearray()
        for value in zigzagged.tolist():
            while True:
                byte = value & 0x7F
                value >>= 7
                if value:
                    out.append(byte | 0x80)
                else:
                    out.append(byte)
                    break
        return bytes(out)

    naive = benchmark(naive_pack, quiet_audio)
    from repro.sound.compaction import compact_redundancy

    folded = compact_redundancy(quiet_audio)
    assert len(folded) < len(naive)  # the mechanism earns its keep


def test_chord_starts_via_syncs(benchmark, bwv578_session):
    """Figure 14 ablation, part 1: starts read from shared syncs."""
    builder = bwv578_session
    view = builder.view
    chords = [
        item
        for voice in view.voices()
        for item in view.voice_stream(voice)
        if item.type.name == "CHORD"
    ]

    def via_syncs():
        return [view.chord_start_beats(chord) for chord in chords]

    starts = benchmark(via_syncs)
    assert len(starts) == len(chords)


def test_chord_starts_via_stream_walk(benchmark, bwv578_session):
    """Figure 14 ablation, part 2: starts recomputed by walking each
    voice stream and summing durations (no sync entities consulted)."""
    from fractions import Fraction

    builder = bwv578_session
    view = builder.view

    def via_walk():
        out = []
        for voice in view.voices():
            cursor = Fraction(0)
            for item in view.voice_stream(voice):
                if item.type.name == "CHORD":
                    out.append(cursor)
                cursor += item["duration"] * 4
        return out

    starts = benchmark(via_walk)
    assert starts
