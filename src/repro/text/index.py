"""Trigram inverted index: one posting per 3-gram, an array of rowids
or a bitset, whichever is smaller.

Mirrors the maintenance surface of ``storage.index.HashIndex`` —
``insert(value, rowid)`` / ``insert_many(pairs)`` / ``delete(value,
rowid)`` — so ``Table`` can register it in the same ``_indexes`` map
and every mutation, undo and redo path maintains it for free, inside
the same transaction as the row effect.

The index stores *normalized* trigrams only.  Durability comes from the
owning table's WAL: recovery re-registers an empty ``TrigramIndex``
before the checkpoint image loads, installs image and redo rows with
index upkeep deferred, and fills it with one ``insert_many`` over the
rows that are left (``Table.build_deferred_indexes``) — the build the
crash battery cross-checks against an oracle rebuilt row by row through
``insert``.  ``dump()`` / ``load()`` are that build's shortcut, not a
second source of truth: what the index holds goes out as bytes with no
step per posting entry (``repro.text.stream`` has the layout) and an
open whose rows are provably the ones dumped loads them back.

Posting forms.  A gram's posting is a :class:`~repro.text.bitset.
Sparse`, a sorted array of rowids at 4 bytes an entry, or a
:class:`~repro.text.bitset.Bits`, a bit a rowid of span: the bitset
once the posting holds an entry per 32 rowids up to its last, the array
again once it holds fewer than one per 64.  The posting's own count and
last rowid decide (``settled``), after every edit; nothing is
configured, this module never asks which form it holds, and
``_postings`` reads the same whichever form a history left a posting
in.  Postings are sharded by the gram's first character so a
catalog-scale gram space never funnels through one resize-happy dict.
Rowids must fit the array's unsigned 32 bits (``StorageError``
otherwise), which ``itertools.count``-allocated table rowids do until
~4 billion rows.

Candidate retrieval is sound, and for ``similar_to`` exact.  It runs on
``repro.text.bitset``'s masks a chunk of rowid space at a time: an
array's slice of the chunk is lifted to a transient mask (the one
Python step per posting entry left), everything after is big-integer
arithmetic, and a rowid becomes a Python object only as part of an
answer.

* ``candidates_matching`` / ``iter_matching`` take the chunks the
  query's shortest posting reaches and AND the others' masks over each
  (containment implies every query gram appears in the value), lazily
  and ascending, so a consumer that stops early has paid for the chunks
  it saw;
* ``similar_overlaps`` / ``overlap_counts`` add the query grams' chunk
  masks into bit-sliced counters and read the rows of one overlap off
  the planes.  A row's gram count is kept as planes too, a set per
  chunk, so what is asked of it is ANDs as well: "at most this many"
  (overlap and count give the Jaccard exactly, so
  ``candidates_similar`` is the match set itself while the index
  describes the rows it is asked about; a pinned reader's stale rowids
  are the exception) and ``size_cells``' "fewest first" (the order the
  ranked bound falls in).

Callers re-verify ``matches`` candidates, and whatever a pinned
reader's stale rowids add, with the exact predicate on the rows.
Queries whose normalized form has no trigrams return ``None`` --
"cannot prune, go scan".
"""

import struct
from array import array
from bisect import bisect_left
from itertools import zip_longest
from operator import itemgetter

from repro.errors import StorageError
from repro.obs.metrics import Gauge

from .bitset import (
    LOW, SHIFT, WIDTH, Bits, Rowids, Sparse, add_hits, at_most,
    count_equals, least, planes_of, rowids_of, set_count, spans,
)
from .normalize import trigrams
from .similarity import required_overlap

__all__ = ["TrigramIndex"]

#: What ``_postings`` shows a posting as: unsigned 32-bit rowids.
_CODE = "I"
_MAX_ROWID = (1 << 8 * array(_CODE).itemsize) - 1

#: Rough CPython cost of one posting beyond its entries: the object
#: header plus its dict slot in the shard.  Only used for the footprint
#: *estimate* (``\indexes``, ``text.index.bytes``); nothing
#: correctness-critical reads it.
_POSTING_OVERHEAD = 120

#: Below this many pairs, ``insert_many`` falls back to per-row
#: inserts; batching overhead would dominate (mirrors HashIndex).
_BULK_THRESHOLD = 16

#: ``insert_many`` looks for grams to collect in flags when this many
#: rows are done, and again each time that number has doubled.
_FIRST_LOOK = 1024

_NO_DIGITS = b"0" * WIDTH
_ROWID = itemgetter(1)

#: ``dump()``'s fixed fields and what a gram's form byte loads as.
_DUMP_HEAD = struct.Struct("<QQII")
_SIZED_HEAD = struct.Struct("<IB")
_FORMS = (Sparse, Bits)
_MASK_BYTES = WIDTH >> 3


def _read_flags(flags, poured, sizes, planes, last, reached):
    """Move what ``insert_many``'s *flags* and *sizes* say of the chunk
    ending at rowid *last*, of which rows up to *reached* have been
    seen, into *poured* as that chunk's masks and into its gram-count
    *planes*, and clear them."""
    lead = last - reached  # digits no row got to
    for gram, flagged in flags.items():
        mask = int(flagged[lead:], 2)
        if mask:
            poured[gram][last >> SHIFT] = mask
            flagged[lead:] = _NO_DIGITS[lead:]
    read = planes_of(sizes[lead:])
    if read:
        held = planes.get(last >> SHIFT, ())
        planes[last >> SHIFT] = [
            a | b for a, b in zip_longest(held, read, fillvalue=0)
        ]
        sizes[lead:] = bytes(WIDTH - lead)


class TrigramIndex:
    """In-memory sharded trigram postings over one string column."""

    kind = "text"

    def __init__(self, metrics):
        # gram[0] -> {gram: Sparse or Bits}
        self._shards = {}
        # chunk index -> planes of its rows' gram-set sizes.  |row grams|
        # turns a candidate's posting overlap into an *exact* Jaccard
        # (union = |Q| + |R| - overlap), which is what makes the top-k
        # score bound tight enough to skip fetching most candidates.
        # A gram-less row sets no bit and is counted in _rows alone.
        self._sizes = {}
        self._rows = 0
        self._posting_entries = 0
        self._posting_bytes = 0
        self._gram_count = 0
        self._reported = 0
        self._inserts = metrics.counter("text.index.inserts")
        self._deletes = metrics.counter("text.index.deletes")
        self._bytes_gauge = metrics.gauge("text.index.bytes")

    def __len__(self):
        """Number of rows currently indexed (including gram-less ones)."""
        return self._rows

    def gram_count(self):
        return self._gram_count

    def posting_entries(self):
        """Total posting slots across every gram (rows x grams-per-row)."""
        return self._posting_entries

    def approx_bytes(self):
        """Estimated memory footprint of the index storage."""
        return (
            self._posting_bytes
            + self._gram_count * _POSTING_OVERHEAD
            + sum(map(len, self._sizes.values())) * (WIDTH >> 3)
        )

    @property
    def _row_grams(self):
        """``{rowid: gram count}`` read off the planes, gram-less rows
        left out: like ``_postings``, the same for the same rows."""
        counts = {}
        for at, planes in self._sizes.items():
            for i, plane in enumerate(planes):
                for rowid in rowids_of(plane, at << SHIFT):
                    counts[rowid] = counts.get(rowid, 0) | 1 << i
        return counts

    @property
    def _postings(self):
        """Flat ``{gram: array of ascending rowids}`` view across every
        shard, whatever form each posting is held in.

        Arrays compare element-wise, so two indexes holding the same
        rows are equal through this view no matter what op order built
        them or which side of the size rule's hysteresis a posting is
        on — the crash battery's rebuild-from-rows oracle compares
        exactly this.
        """
        return {
            gram: array(_CODE, posting)
            for shard in self._shards.values()
            for gram, posting in shard.items()
        }

    def _posting(self, gram):
        shard = self._shards.get(gram[0])
        if shard is None:
            return None
        return shard.get(gram)

    def _account(self, entries_delta):
        self._posting_entries += entries_delta
        now = self.approx_bytes()
        self._bytes_gauge.inc(now - self._reported)
        self._reported = now

    def detach(self):
        """Surrender this index's share of ``text.index.bytes``.

        Called when the owning table drops the index; the registry gauge
        aggregates every live text index, so a dropped one must give its
        bytes back before it is discarded -- once: from then on it
        reports to a gauge of its own, which no registry holds.
        """
        self._bytes_gauge.dec(self._reported)
        self._bytes_gauge = Gauge(self._bytes_gauge.name)

    # -- dump / load (the posting stream) -------------------------------------

    def dump(self):
        """Everything this index holds as a list of bytes pieces (join
        them for :meth:`load`), each posting in the form it is held in:
        a step per gram and per chunk, none per posting entry, and no
        second copy of the whole."""
        pieces = [_DUMP_HEAD.pack(
            self._rows, self._posting_entries, self._gram_count,
            len(self._sizes),
        )]
        for shard in self._shards.values():
            for gram, posting in shard.items():
                raw = gram.encode("utf-8")
                form = _FORMS.index(type(posting))
                pieces.append(b"".join(
                    [bytes((len(raw),)), raw, bytes((form,))] + posting.dump()
                ))
        for at, planes in self._sizes.items():
            pieces.append(_SIZED_HEAD.pack(at, len(planes)) + b"".join(
                plane.to_bytes(_MASK_BYTES, "little") for plane in planes
            ))
        return pieces

    def load(self, data):
        """Make this index, empty so far, hold what the one bytes-like
        *data* was dumped from held.  Raises :class:`StorageError`, the
        index still empty, when *data* is not a whole dump."""
        if self._rows or self._shards:
            raise StorageError("only an empty text index can load a dump")
        view = memoryview(data)
        shards, sizes, posting_bytes = {}, {}, 0
        try:
            rows, entries, grams, sized = _DUMP_HEAD.unpack_from(view, 0)
            offset = _DUMP_HEAD.size
            for _ in range(grams):
                end = offset + 1 + view[offset]
                gram = str(view[offset + 1:end], "utf-8")
                posting, offset = _FORMS[view[end]].load(view, end + 1)
                shards.setdefault(gram[0], {})[gram] = posting
                posting_bytes += posting.nbytes()
            for _ in range(sized):
                at, count = _SIZED_HEAD.unpack_from(view, offset)
                offset += _SIZED_HEAD.size
                sizes[at] = [
                    int.from_bytes(view[start:start + _MASK_BYTES], "little")
                    for start in range(
                        offset, offset + count * _MASK_BYTES, _MASK_BYTES
                    )
                ]
                offset += count * _MASK_BYTES
            # A slice past the end is short without complaint; only the
            # running offset shows the dump was cut there.
            if offset != len(view):
                raise ValueError(
                    "%d bytes where %d were dumped" % (len(view), offset)
                )
        except (struct.error, ValueError, IndexError) as error:
            raise StorageError("malformed text index dump: %s" % error)
        self._shards, self._sizes = shards, sizes
        self._rows, self._gram_count = rows, grams
        self._posting_bytes = posting_bytes
        self._account(entries)

    # -- maintenance (the nine row paths all funnel through these) ---------

    def _admit(self, low, top):
        """Refuse rowids outside what a posting array can hold."""
        if not 0 <= low <= top <= _MAX_ROWID:
            raise StorageError(
                "text index rowids must lie in 0..%d, got %r"
                % (_MAX_ROWID, top if low >= 0 else low)
            )

    def _settle(self, shard, gram, posting):
        """Hold *posting*, just edited, under *gram* of *shard* in the
        form the size rule gives it now: not at all, once empty."""
        settled = posting.settled()
        if settled is posting:
            return
        self._posting_bytes -= posting.nbytes()
        if settled is not None:
            shard[gram] = settled
            self._posting_bytes += settled.nbytes()
            return
        del shard[gram]
        self._gram_count -= 1
        if not shard:
            del self._shards[gram[0]]

    def _resize(self, rowid, count):
        """Store *count* (0: forget it) as *rowid*'s gram-set size."""
        planes = self._sizes.setdefault(rowid >> SHIFT, [])
        set_count(planes, 1 << (rowid & LOW), count)
        if not planes:
            del self._sizes[rowid >> SHIFT]

    def insert(self, value, rowid):
        self._admit(rowid, rowid)
        grams = trigrams(value)
        for gram in grams:
            shard = self._shards.setdefault(gram[0], {})
            posting = shard.get(gram)
            if posting is None:
                posting = shard[gram] = Sparse()
                self._gram_count += 1
            self._posting_bytes += posting.add(rowid)
            self._settle(shard, gram, posting)
        self._resize(rowid, len(grams))
        self._rows += 1
        self._account(len(grams))
        self._inserts.inc()

    def insert_many(self, pairs):
        """Bulk insert: a Python step per (row, gram), the rest in C.

        The per-row path pays an insort or a chunk rewrite per (gram,
        row); a 1M-row backfill through it is quadratic in the hot
        postings.  Here the rows are taken in rowid order and each
        gram's new rowids collected in a list, merged into its posting
        in one pass at the end.  A gram met in one row of 32 so far --
        looked at each time the rows done have doubled -- collects in
        flags from then on: a byte per rowid of the chunk the rows have
        reached, set by that same one step and read off as the chunk's
        mask by ``int(..., 2)`` when they leave it, with no step per
        entry.  The rows' gram counts are a byte each of that chunk, read
        off as its planes the same way (one no byte holds is stored as
        ``insert`` does).
        """
        pairs = sorted(pairs, key=_ROWID)
        if len(pairs) < _BULK_THRESHOLD:
            for value, rowid in pairs:
                self.insert(value, rowid)
            return
        self._admit(pairs[0][1], pairs[-1][1])
        fresh = {}   # gram -> [rowid, ...]
        flags = {}   # gram -> a chunk's rowids as binary digits, last first
        poured = {}  # gram -> {chunk index: mask}, the chunks flags have left
        sizes, planes = bytearray(WIDTH), self._sizes  # its rows' gram counts
        last = -1    # last rowid of the chunk the flags and sizes are about
        reached = 0  # and the last rowid seen, which is inside it
        start, stop = 0, _FIRST_LOOK
        while start < len(pairs):
            for value, rowid in pairs[start:stop]:
                if rowid > last:
                    _read_flags(flags, poured, sizes, planes, last, reached)
                    last = rowid | LOW
                grams = trigrams(value)
                at = last - rowid
                if len(grams) < 256:
                    sizes[at] = len(grams)
                else:
                    self._resize(rowid, len(grams))
                for gram in grams:
                    flagged = flags.get(gram)
                    if flagged is not None:
                        flagged[at] = 49
                    else:
                        bucket = fresh.get(gram)
                        if bucket is None:
                            fresh[gram] = [rowid]
                        else:
                            bucket.append(rowid)
                reached = rowid
            for gram in [
                g for g, b in fresh.items() if len(b) << 5 >= stop
            ]:
                flagged = flags[gram] = bytearray(_NO_DIGITS)
                bucket = fresh.pop(gram)
                cut = bisect_left(bucket, last - LOW)
                poured[gram] = dict(spans(bucket[:cut]))
                for held in bucket[cut:]:
                    flagged[last - held] = 49
            start, stop = stop, stop * 2
        _read_flags(flags, poured, sizes, planes, last, reached)
        self._rows += len(pairs)
        built = {gram: Sparse(rowids) for gram, rowids in fresh.items()}
        for gram, masks in poured.items():
            built[gram] = Bits(Rowids(masks=masks))
        for gram, posting in built.items():
            shard = self._shards.setdefault(gram[0], {})
            held = shard.get(gram)
            if held is None:
                shard[gram] = posting
                self._gram_count += 1
                self._posting_bytes += posting.nbytes()
            else:
                self._posting_bytes += held.update(posting)
            self._settle(shard, gram, shard[gram])
        self._account(sum(map(len, built.values())))
        self._inserts.inc(len(pairs))

    def delete(self, value, rowid):
        grams = trigrams(value)
        # Every posting is checked before any is edited: the desync this
        # reports must not leave the index half-deleted as well.
        for gram in grams:
            posting = self._posting(gram)
            if posting is None or rowid not in posting:
                raise StorageError(
                    "text index out of sync: rowid %r missing from "
                    "posting %r" % (rowid, gram)
                )
        for gram in grams:
            shard = self._shards[gram[0]]
            self._posting_bytes += shard[gram].discard(rowid)
            self._settle(shard, gram, shard[gram])
        self._resize(rowid, 0)
        self._rows -= 1
        self._account(-len(grams))
        self._deletes.inc()

    # -- candidate retrieval ------------------------------------------------

    def candidates_matching(self, query):
        """:class:`Rowids` whose value can contain *query* (its text or
        its folded gram set); None = cannot prune."""
        masks = self._matching(query, -1)
        return None if masks is None else Rowids(masks=dict(masks))

    def iter_matching(self, query, after=-1):
        """Lazy ``candidates_matching``: yields rowids ascending.

        Returns None when the query has no trigrams (cannot prune).
        The executor's streaming path consumes only as many candidates
        as the limit needs, a chunk per call: *after* re-seeks a fresh
        intersection past the last rowid the previous chunk saw, so
        none is ever left suspended between chunks (a pinned reader
        lets writers at the postings in between).
        """
        masks = self._matching(query, after)
        if masks is None:
            return None
        return (
            rowid for at, mask in masks
            for rowid in rowids_of(mask, at << SHIFT)
        )

    def _query_postings(self, query):
        """The postings of *query*'s grams (its text, or the gram set
        ``trigrams`` folded it to), shortest first; None when it has no
        grams, [] when some gram has no posting at all."""
        grams = query if isinstance(query, (set, frozenset)) else trigrams(query)
        if not grams:
            return None
        postings = list(map(self._posting, grams))
        # An identity test a posting: ``None in postings`` would call
        # each posting's Set ``__eq__`` with None.
        for posting in postings:
            if posting is None:
                return []
        return sorted(postings, key=len)

    def _matching(self, query, after):
        """The one intersection: ``(chunk index, mask)`` of the rowids
        above *after* that every posting of *query* holds, ascending,
        nonzero masks only, each computed as it is asked for.  None
        when the query has no grams."""
        postings = self._query_postings(query)
        if postings is None:
            return None
        if not postings:
            return iter(())
        # The shortest posting says which chunks to look at; the others
        # follow shortest first, an array lifted only where something
        # is left.
        shortest, others = postings[0], postings[1:]

        def masks():
            for at, mask in shortest.chunks(after + 1):
                for other in others:
                    mask &= other.chunk(at)
                    if not mask:
                        break
                else:
                    yield at, mask

        return masks()

    def candidates_similar(self, query, threshold):
        """:class:`Rowids` whose indexed value reaches Jaccard >=
        threshold; None = cannot prune."""
        masks = self.similar_overlaps(query, threshold)
        return None if masks is None else Rowids(masks=masks)

    def _count(self, grams, within=None):
        """The one counting kernel: ``[(chunk index, planes), ...]``
        ascending, the bit-sliced count of how many of *grams*' postings
        hold each rowid (of :class:`Rowids` *within*, when given), and
        how many of the grams have a posting at all."""
        postings = [
            posting for posting in map(self._posting, grams)
            if posting is not None
        ]
        counted = {} if within is None else {at: [] for at in within.masks}
        for posting in postings:
            if within is None:
                hits = posting.chunks()
            else:
                hits = (
                    (at, posting.chunk(at) & gate)
                    for at, gate in within.masks.items()
                )
            for at, mask in hits:
                add_hits(counted.setdefault(at, []), mask)
        return sorted(counted.items()), len(postings)

    def similar_overlaps(self, query, threshold):
        """``{chunk index: mask}`` of the rows whose Jaccard with
        *query* reaches *threshold*; None when the index cannot prune.

        With ``k`` query grams, a row of ``R`` grams sharing ``o`` of
        them has Jaccard exactly ``o / (k + R - o)``, and passing takes
        ``o >= required_overlap(k, threshold)``.  So: count every
        query gram's posting into the planes, and for each overlap from
        the required one up AND its rows with those whose stored gram
        count is at most the largest that passes -- found by the
        predicate's own division, so while the index describes the rows
        the result *is* the answer set.
        """
        grams = trigrams(query)
        k = len(grams)
        required = required_overlap(k, threshold)
        if not grams or required <= 0:
            return None
        counted, most = self._count(grams)
        masks = {}
        for overlap in range(required, most + 1):
            # The largest gram count that passes with this overlap.
            limit = int(overlap / threshold) + overlap - k + 2
            while overlap / (k + limit - overlap) < threshold:
                limit -= 1
            for at, planes in counted:
                mask = at_most(
                    self._sizes.get(at, ()), limit, count_equals(planes, overlap)
                )
                if mask:
                    masks[at] = masks.get(at, 0) | mask
        return masks

    def overlap_counts(self, grams, rowids):
        """*rowids* by how many of *grams* each one's row holds:
        ``(overlap, Rowids)`` buckets, highest overlap first, empty
        ones left out, every rowid in exactly one.

        The ranked top-k path calls this with the similarity query's
        gram set over the (already pruned) gate candidates.  The
        postings are counted before this returns; a bucket's rowids are
        read off the planes when the caller reaches it, so a caller
        that stops at the first buckets never enumerates the rest, and
        none is looked for once every rowid has had its bucket.
        """
        if not isinstance(rowids, Rowids):
            rowids = Rowids(rowids)
        counted, most = self._count(grams, rowids)

        def buckets():
            left = dict(rowids.masks)
            for overlap in range(most, -1, -1):
                masks = {
                    at: mask for at, planes in counted
                    if (mask := count_equals(planes, overlap, left.get(at, 0)))
                }
                if masks:
                    yield overlap, Rowids(masks=masks)
                    for at, mask in masks.items():
                        if rest := left.pop(at) ^ mask:
                            left[at] = rest
                    if not left:
                        return

        return buckets()

    def size_cells(self, rowids):
        """:class:`Rowids` *rowids* by stored gram count: ``(count,
        Rowids)`` cells, fewest grams first (the order ``SimilarityScorer.
        bound_with`` falls in), every rowid in exactly one.  The counts
        are read when this is called, which is all a caller does inside
        a probe; a cell is found from them when the caller reaches it,
        by the minimum walk of the chunks whose head cell went out last,
        so one that stops early never looks for the rest."""
        planes = {at: tuple(self._sizes.get(at, ())) for at in rowids.masks}

        def cells(left):
            heads = {}
            while left:
                for at, mask in left.items():
                    if at not in heads:
                        heads[at] = least(planes[at], mask)
                fewest = min(count for count, _ in heads.values())
                cell = {
                    at: mask for at, (count, mask) in heads.items()
                    if count == fewest
                }
                for at, mask in cell.items():
                    del heads[at]
                    if rest := left.pop(at) ^ mask:
                        left[at] = rest
                yield fewest, Rowids(masks=cell)

        return cells(dict(rowids.masks))

    # -- planner cost estimate -----------------------------------------------

    def estimate_matching(self, query):
        """Upper bound on ``candidates_matching``'s result size, without
        computing it; None = the index cannot prune this query."""
        postings = self._query_postings(query)
        if postings is None:
            return None
        return len(postings[0]) if postings else 0
