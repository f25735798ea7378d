"""Trigram inverted index: compact sorted posting arrays per 3-gram.

Mirrors the maintenance surface of ``storage.index.HashIndex`` —
``insert(value, rowid)`` / ``insert_many(pairs)`` / ``delete(value,
rowid)`` — so ``Table`` can register it in the same ``_indexes`` map
and every mutation, undo and redo path maintains it for free, inside
the same transaction as the row effect.

The index stores *normalized* trigrams only; nothing here persists.
Durability comes from the owning table's WAL: recovery re-registers an
empty ``TrigramIndex`` before the checkpoint image loads, installs
image and redo rows with index upkeep deferred, and fills it with one
``insert_many`` over the rows that are left (``Table.
build_deferred_indexes``) — the build the crash battery cross-checks
against an oracle rebuilt row by row through ``insert``.

Storage layout (the million-track change): each gram's posting is a
sorted ``array('I')`` of rowids — 4 bytes per entry against the ~32+
bytes a Python ``set`` slot costs — and postings are sharded by the
gram's first character so a catalog-scale gram space never funnels
through one resize-happy dict.  Rowids therefore must fit an unsigned
32-bit int, which ``itertools.count``-allocated table rowids do until
~4 billion rows.

Candidate retrieval is sound, and for ``similar_to`` exact:

* ``candidates_matching`` intersects the posting lists of every query
  trigram (containment implies every query gram appears in the value),
  shortest first: the survivors meet each longer posting as a set, or
  by bisection once it is much longer than they are, so cost scales
  with the *rarest* gram, not the table;
* ``candidates_similar`` decides each row from its posting overlap and
  its stored gram count, which together give its Jaccard exactly.  It
  counts only the ``k - r + 1`` *essential* shortest postings -- a
  qualifying row must appear in one of them -- drops rows whose gram
  count alone rules them out, and probes the long postings per
  survivor by bisection until the row's own count bound is decided,
  instead of touching every posting entry of every query gram.

Both return supersets of the true matches -- ``candidates_similar`` the
match set itself while the index describes the rows it is asked about
(a pinned reader's stale rowids are the exception) -- and callers
re-verify with the exact predicate on the materialized rows.  Queries
whose normalized form has no trigrams return ``None`` -- "cannot prune,
go scan".  The streaming counterparts ``iter_matching`` /
``overlap_counts`` feed the executor's top-k path, which wants
candidates lazily (in rowid order) or bucketed by gram overlap rather
than materialized as a set.
"""

from array import array
from bisect import bisect_left, bisect_right, insort

from repro.errors import StorageError

from .normalize import trigrams
from .similarity import required_overlap

__all__ = ["TrigramIndex"]

#: Posting array typecode: unsigned 32-bit rowids, 4 bytes each.
_CODE = "I"
_ITEMSIZE = array(_CODE).itemsize

#: Rough CPython cost of one posting beyond its entries: the array
#: object header plus its dict slot in the shard.  Only used for the
#: footprint *estimate* (``\indexes``, ``text.index.bytes``); nothing
#: correctness-critical reads it.
_POSTING_OVERHEAD = 120

#: Rough CPython cost of one row's slot in the per-row gram-count map.
_ROW_OVERHEAD = 64

#: Below this many pairs, ``insert_many`` falls back to per-row
#: inserts; batching overhead would dominate (mirrors HashIndex).
_BULK_THRESHOLD = 16


#: A rowid set meets a posting by walking the posting -- a C loop,
#: ~25 ns an entry -- unless the posting is this many times longer than
#: the set; then each rowid is bisected into it, a Python step apiece.
_BISECT_RATIO = 16


def _members(rowids, posting):
    """The rowids of set *rowids* that sorted *posting* holds."""
    n = len(posting)
    if n <= _BISECT_RATIO * len(rowids):
        return rowids.intersection(posting)
    out = set()
    for rowid in rowids:
        i = bisect_left(posting, rowid)
        if i < n and posting[i] == rowid:
            out.add(rowid)
    return out


class TrigramIndex:
    """In-memory sharded trigram posting arrays over one string column."""

    kind = "text"

    def __init__(self, metrics=None):
        # gram[0] -> {gram: sorted array('I') of rowids}
        self._shards = {}
        # rowid -> that row's gram-set size.  |row grams| turns a
        # candidate's posting overlap into an *exact* Jaccard (union =
        # |Q| + |R| - overlap), which is what makes the top-k score
        # bound tight enough to skip fetching most candidates.
        self._row_grams = {}
        self._posting_entries = 0
        self._gram_count = 0
        if metrics is not None:
            self._inserts = metrics.counter("text.index.inserts")
            self._deletes = metrics.counter("text.index.deletes")
            self._bytes_gauge = metrics.gauge("text.index.bytes")
        else:
            self._inserts = self._deletes = self._bytes_gauge = None

    def __len__(self):
        """Number of rows currently indexed (including gram-less ones)."""
        return len(self._row_grams)

    def gram_count(self):
        return self._gram_count

    def posting_entries(self):
        """Total posting slots across every gram (rows x grams-per-row)."""
        return self._posting_entries

    def row_gram_count(self, rowid):
        """Gram-set size of one indexed row (0 when unknown/gram-less)."""
        return self._row_grams.get(rowid, 0)

    def approx_bytes(self):
        """Estimated memory footprint of the index storage."""
        return (
            self._posting_entries * _ITEMSIZE
            + self._gram_count * _POSTING_OVERHEAD
            + len(self._row_grams) * _ROW_OVERHEAD
        )

    @property
    def _postings(self):
        """Flat ``{gram: posting array}`` view across every shard.

        Arrays compare element-wise and postings are kept sorted, so two
        indexes holding the same rows are equal through this view no
        matter what op order built them — the crash battery's
        rebuild-from-rows oracle compares exactly this.
        """
        out = {}
        for shard in self._shards.values():
            out.update(shard)
        return out

    def _posting(self, gram):
        shard = self._shards.get(gram[0])
        if shard is None:
            return None
        return shard.get(gram)

    def _account(self, entries_delta, grams_delta, rows_delta):
        self._posting_entries += entries_delta
        self._gram_count += grams_delta
        if self._bytes_gauge is not None and (
            entries_delta or grams_delta or rows_delta
        ):
            self._bytes_gauge.inc(
                entries_delta * _ITEMSIZE
                + grams_delta * _POSTING_OVERHEAD
                + rows_delta * _ROW_OVERHEAD
            )

    def detach(self):
        """Surrender this index's share of ``text.index.bytes``.

        Called when the owning table drops the index; the registry gauge
        aggregates every live text index, so a dropped one must give its
        bytes back before it is discarded.
        """
        if self._bytes_gauge is not None:
            self._bytes_gauge.dec(self.approx_bytes())
            self._bytes_gauge = None

    # -- maintenance (the nine row paths all funnel through these) ---------

    def insert(self, value, rowid):
        grams = trigrams(value)
        new_grams = 0
        for gram in grams:
            shard = self._shards.setdefault(gram[0], {})
            posting = shard.get(gram)
            if posting is None:
                shard[gram] = array(_CODE, (rowid,))
                new_grams += 1
            elif rowid > posting[-1]:
                # Fresh rowids are monotonic, so appends dominate.
                posting.append(rowid)
            else:
                insort(posting, rowid)
        self._row_grams[rowid] = len(grams)
        self._account(len(grams), new_grams, 1)
        if self._inserts is not None:
            self._inserts.inc()

    def insert_many(self, pairs):
        """Bulk insert: group rowids per gram, one sort/merge per gram.

        The per-row path pays an insort per (gram, row); a 1M-row
        backfill through it is quadratic in the hot postings.  Here each
        gram's new rowids are collected, sorted once (bulk loads arrive
        in ascending rowid order, so Timsort sees nearly-sorted input),
        and appended — or merged, when the batch interleaves an
        existing posting — in one pass.
        """
        pairs = list(pairs)
        if len(pairs) < _BULK_THRESHOLD:
            for value, rowid in pairs:
                self.insert(value, rowid)
            return
        fresh = {}
        for value, rowid in pairs:
            grams = trigrams(value)
            self._row_grams[rowid] = len(grams)
            for gram in grams:
                bucket = fresh.get(gram)
                if bucket is None:
                    fresh[gram] = [rowid]
                else:
                    bucket.append(rowid)
        new_entries = 0
        new_grams = 0
        for gram, rowids in fresh.items():
            rowids.sort()
            shard = self._shards.setdefault(gram[0], {})
            posting = shard.get(gram)
            if posting is None:
                shard[gram] = array(_CODE, rowids)
                new_grams += 1
            elif rowids[0] > posting[-1]:
                posting.extend(rowids)
            else:
                posting.extend(rowids)
                shard[gram] = array(_CODE, sorted(posting))
            new_entries += len(rowids)
        self._account(new_entries, new_grams, len(pairs))
        if self._inserts is not None:
            self._inserts.inc(len(pairs))

    def delete(self, value, rowid):
        grams = trigrams(value)
        dropped_grams = 0
        for gram in grams:
            shard = self._shards.get(gram[0])
            posting = shard.get(gram) if shard is not None else None
            if posting is not None:
                i = bisect_left(posting, rowid)
                if i == len(posting) or posting[i] != rowid:
                    posting = None
            if posting is None:
                raise StorageError(
                    "text index out of sync: rowid %r missing from "
                    "posting %r" % (rowid, gram)
                )
            posting.pop(i)
            if not posting:
                del shard[gram]
                dropped_grams += 1
                if not shard:
                    del self._shards[gram[0]]
        self._row_grams.pop(rowid, None)
        self._account(-len(grams), -dropped_grams, -1)
        if self._deletes is not None:
            self._deletes.inc()

    # -- candidate retrieval ------------------------------------------------

    def candidates_matching(self, query):
        """Rowids whose value can contain *query*; None = cannot prune."""
        postings = self._query_postings(query)
        if postings is None:
            return None
        if not postings:
            return set()
        rowids = set(postings[0])
        for posting in postings[1:]:
            rowids = _members(rowids, posting)
        return rowids

    def iter_matching(self, query, after=-1):
        """Lazy ``candidates_matching``: yields rowids ascending.

        Returns None when the query has no trigrams (cannot prune).
        The executor's streaming path consumes only as many candidates
        as the limit needs, a chunk per call: *after* re-seeks a fresh
        merge past the last rowid the previous chunk saw, so no merge
        is ever left suspended between chunks (a pinned reader lets
        writers at the postings in between).
        """
        postings = self._query_postings(query)
        if postings is None:
            return None
        if not postings:
            return iter(())
        return self._intersect(postings, after)

    def _query_postings(self, query):
        """The query grams' postings sorted shortest-first; None when the
        query has no grams, [] when some gram has no posting at all."""
        grams = trigrams(query)
        if not grams:
            return None
        postings = []
        for gram in grams:
            posting = self._posting(gram)
            if posting is None:
                return []
            postings.append(posting)
        postings.sort(key=len)
        return postings

    @staticmethod
    def _intersect(postings, after=-1):
        """Lazy merge: rowids above *after* present in every posting,
        ascending.

        Drives with the shortest posting; each longer posting keeps a
        cursor that only moves forward, by bisecting what lies past it,
        so a consumer that stops early has walked only the driver's
        head (the whole set is ``candidates_matching``'s job).
        """
        driver = postings[0]
        others = postings[1:]
        positions = [0] * len(others)
        start = bisect_right(driver, after)
        tail = (
            (driver[k] for k in range(start, len(driver))) if start
            else driver
        )
        for rowid in tail:
            hit = True
            for j, posting in enumerate(others):
                i = positions[j]
                if i < len(posting) and posting[i] < rowid:
                    i = bisect_left(posting, rowid, i + 1)
                    positions[j] = i
                if i == len(posting):
                    return  # posting exhausted: nothing larger can match
                if posting[i] != rowid:
                    hit = False
                    break
            if hit:
                yield rowid

    def candidates_similar(self, query, threshold):
        """Rowids whose indexed value reaches Jaccard >= threshold; None =
        cannot prune."""
        counts = self.similar_overlaps(query, threshold)
        if counts is None:
            return None
        return set(counts)

    def similar_overlaps(self, query, threshold):
        """``{rowid: exact gram overlap}`` for the rows whose Jaccard
        with *query* reaches *threshold*; None when the index cannot
        prune.

        With ``k`` query grams, a row of ``R`` grams sharing ``o`` of
        them has Jaccard exactly ``o / (k + R - o)``, so it passes only
        if ``t*k <= R <= k/t`` (no overlap could save it otherwise) and
        ``o >= t*(k + R)/(1 + t)``.  Any passing row shares at least
        ``r = required_overlap(...)`` grams and so appears in one of the
        ``k - r + 1`` shortest ("essential") postings -- missing all of
        them caps its hits at ``r - 1``.  So: count hits over the
        essential postings only, drop the rows the length filter rules
        out, then finish each survivor's count by bisecting into the
        long postings, abandoning a row as soon as even winning every
        remaining probe cannot reach its bound.  The epsilons only ever
        weaken those two tests; the last one is the predicate's own
        division, so while the index describes the rows the result *is*
        the answer set.  Survivors carry their exact overlap, which the
        top-k executor turns into a similarity upper bound per bucket.
        """
        grams = trigrams(query)
        k = len(grams)
        required = required_overlap(k, threshold)
        if not grams or required <= 0:
            return None
        postings = []
        for gram in grams:
            posting = self._posting(gram)
            if posting is not None:
                postings.append(posting)
        if len(postings) < required:
            return {}
        postings.sort(key=len)
        cut = len(postings) - required + 1
        essential, rest = postings[:cut], postings[cut:]
        counts = {}
        for posting in essential:
            for rowid in posting:
                counts[rowid] = counts.get(rowid, 0) + 1
        row_grams = self._row_grams
        shortest = threshold * k - 1e-9
        longest = k / threshold + 1e-9
        share = threshold / (1.0 + threshold)
        probes = len(rest)
        out = {}
        for rowid, hits in counts.items():
            size = row_grams[rowid]
            if not shortest <= size <= longest:
                continue
            need = share * (k + size) - 1e-9
            remaining = probes
            for posting in rest:
                if hits + remaining < need:
                    break
                remaining -= 1
                i = bisect_left(posting, rowid)
                if i < len(posting) and posting[i] == rowid:
                    hits += 1
            if hits / (k + size - hits) >= threshold:
                out[rowid] = hits
        return out

    def overlap_counts(self, grams, rowids):
        """Exact ``{rowid: |grams ∩ row grams|}`` for given *rowids*.

        The ranked top-k path calls this with the similarity query's
        gram set over the (already pruned) gate candidates; per gram
        the candidates meet the posting as ``candidates_matching``'s
        do (:func:`_members`), so only the hits cost a Python step.
        """
        counts = dict.fromkeys(rowids, 0)
        if not counts:
            return counts
        rowids = set(counts)
        for gram in grams:
            posting = self._posting(gram)
            if posting is not None:
                for rowid in _members(rowids, posting):
                    counts[rowid] += 1
        return counts

    # -- planner cost estimate -----------------------------------------------

    def estimate_matching(self, query):
        """Upper bound on ``candidates_matching``'s result size, without
        computing it; None = the index cannot prune this query."""
        grams = trigrams(query)
        if not grams:
            return None
        best = None
        for gram in grams:
            posting = self._posting(gram)
            if posting is None:
                return 0
            if best is None or len(posting) < best:
                best = len(posting)
        return best
