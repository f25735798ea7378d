"""Rowid sets as bitset chunks: the two posting forms and the kernels.

A bitset over rowids is kept as fixed-width chunks, Python integers of
``WIDTH`` bits held by chunk index: bit ``r & LOW`` of chunk
``r >> SHIFT`` is rowid *r*, and a chunk with no bit set is not held.
Fixed-width, so that adding or removing one rowid rewrites one chunk
whatever the table's size and a reader that stops early has looked at
the chunks it reached; integers, so that intersecting and counting are
``&``, ``^`` and ``~`` in C, with no step per member.

:class:`Rowids` is the read-only set the text index answers with.  A
posting is a :class:`Sparse` (a sorted array, 4 bytes an entry) or a
:class:`Bits` (a bit a rowid of span), whichever ``settled`` says is
no larger, and both answer the one posting interface: ``add``,
``discard``, ``update``, ``in``, ``len``, ascending iteration,
``chunk(at)``, ``chunks(start)``, ``settled()`` and ``nbytes()`` --
plus ``dump()`` and ``load(view, offset)``, the posting's bytes in the
posting stream (``repro.text.stream`` has the layout): an array or a
chunk goes out by ``tobytes`` / ``to_bytes`` and comes back by
``frombytes`` / ``from_bytes``, so neither takes a step per rowid.
``lift`` turns rowids into a mask (the one place that takes a Python
step per rowid going in, and what a :class:`Sparse` does to the slice
of itself a chunk covers), ``rowids_of`` turns a mask back (the one
place that takes one coming out).  The rest is one bit-sliced counter
family over a chunk: plane *i* holds bit *i* of every rowid's count.
``add_hits`` counts up, ``set_count`` / ``planes_of`` store counts
outright, and ``count_equals`` / ``at_most`` / ``least`` read them an
AND a plane (and-not as ``x ^ (x & plane)``: ``~plane`` is a negative
operand, six times the cost).
"""

import struct
import sys
from array import array
from bisect import bisect_left, insort
from collections.abc import Set
from itertools import compress

__all__ = [
    "Bits", "LOW", "Rowids", "SHIFT", "Sparse", "WIDTH", "add_hits",
    "at_most", "count_equals", "least", "lift", "planes_of", "rowids_of",
    "set_count", "spans",
]

#: Rowids per chunk.  An edit rewrites one chunk (2 KB); the kernels
#: take one Python step per chunk and posting.
SHIFT = 14
WIDTH = 1 << SHIFT
LOW = WIDTH - 1

#: The size rule: a bitset spends a bit per rowid of span, an array 32
#: per entry.  Leaving the bitset form waits for twice the gap, so a
#: posting on the line does not change form with every edit.
_PROMOTE = 5
_DEMOTE = 6

_BIT = bytes(1 << bit for bit in range(8))
_CHUNK_BYTES = WIDTH >> 3

#: What a dumped posting starts with: its rowid count, and for a bitset
#: the number of chunks that follow.
_SPARSE_HEAD = struct.Struct("<I")
_BITS_HEAD = struct.Struct("<II")


def _words(view, offset, count):
    """*count* little-endian unsigned 32-bit words of *view* at
    *offset*, as an array, and the offset past them."""
    end = offset + 4 * count
    words = array("I")
    words.frombytes(view[offset:end])
    if sys.byteorder == "big":
        words.byteswap()
    if len(words) != count:
        raise ValueError("posting cut short at byte %d" % offset)
    return words, end


def _word_bytes(words):
    """``_words``' inverse."""
    if sys.byteorder == "big":
        words = array("I", words)
        words.byteswap()
    return words.tobytes()

#: ``_DIGITS[i]`` translates a count byte to bit *i* of it as a binary digit.
_DIGITS = [bytes(48 + (count >> i & 1) for count in range(256)) for i in range(8)]


def lift(rowids, base):
    """The chunk mask of *rowids*, all inside the chunk whose bit 0 is
    rowid *base*: a Python step per rowid."""
    flags = bytearray(WIDTH >> 3)
    for rowid in rowids:
        rowid -= base
        flags[rowid >> 3] |= _BIT[rowid & 7]
    return int.from_bytes(flags, "little")


def spans(rowids, start=0):
    """``(chunk index, mask)`` of the rowids from *start* up in
    ascending sequence *rowids*, a chunk it reaches at a time."""
    at = bisect_left(rowids, start)
    while at < len(rowids):
        chunk = rowids[at] >> SHIFT
        stop = bisect_left(rowids, chunk + 1 << SHIFT, at)
        yield chunk, lift(rowids[at:stop], chunk << SHIFT)
        at = stop


def rowids_of(mask, base):
    """Ascending rowids of chunk *mask*, bit 0 being rowid *base*: a
    Python step per rowid, none per empty 64-bit word."""
    words = array("Q", mask.to_bytes(WIDTH >> 3, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    for at in compress(range(len(words)), words):
        word = words[at]
        low = base + (at << 6) - 1
        while word:
            bit = word & -word
            yield low + bit.bit_length()
            word ^= bit


def add_hits(planes, hits):
    """Add one to the bit-sliced counter *planes* at every bit of mask
    *hits*: a ripple-carry add across the planes, least significant
    first, a new plane when the carry leaves the last one."""
    for i, plane in enumerate(planes):
        if not hits:
            return
        planes[i] = plane ^ hits
        hits &= plane
    if hits:
        planes.append(hits)


def count_equals(planes, count, within=-1):
    """The mask of the bits of *within* whose counter in *planes* reads
    exactly *count*."""
    if count >> len(planes):
        return 0
    for i, plane in enumerate(planes):
        within &= plane if count >> i & 1 else ~plane
    return within


def at_most(planes, limit, within=-1):
    """The mask of the bits of *within* whose counter in *planes* reads
    *limit* or less: from the top plane down, what is already below
    and what still equals *limit*'s leading bits."""
    if limit >> len(planes):
        return within
    below = 0
    for i in range(len(planes) - 1, -1, -1):
        inside = within & planes[i]
        if limit >> i & 1:
            below |= within ^ inside
            within = inside
        else:
            within ^= inside
    return below | within


def least(planes, within):
    """The smallest counter *planes* holds among the bits of nonzero
    mask *within*, and the mask of the bits that read it: the minimum
    walk, top plane down, keeping the bits with a 0 while any has one."""
    count = 0
    for i in range(len(planes) - 1, -1, -1):
        low = within ^ (within & planes[i])
        if low:
            within = low
        else:
            count |= 1 << i
    return count, within


def set_count(planes, bit, count):
    """Make *count* the counter of mask *bit*; no empty top plane stays."""
    planes.extend([0] * (count.bit_length() - len(planes)))
    for i, plane in enumerate(planes):
        planes[i] = plane | bit if count >> i & 1 else plane ^ (plane & bit)
    while planes and not planes[-1]:
        del planes[-1]


def planes_of(counts):
    """The planes of a chunk's *counts*, a byte a rowid, last rowid
    first: ``translate`` to one plane's binary digits and ``int`` them,
    with no step per rowid."""
    planes = [int(counts.translate(digits), 2) for digits in _DIGITS]
    while planes and not planes[-1]:
        del planes[-1]
    return planes


class Rowids(Set):
    """A read-only set of rowids as ``{chunk index: nonzero mask}``.
    Iterates ascending; ``&`` with another is one AND a chunk."""

    __slots__ = ("masks",)

    def __init__(self, rowids=(), masks=None):
        """Of *rowids* in any order (a Python step for each), or of
        the chunks *masks* as they stand."""
        self.masks = dict(spans(sorted(rowids))) if masks is None else masks

    def __and__(self, other):
        if not isinstance(other, Rowids):
            return Set.__and__(self, other)
        few, many = sorted((self.masks, other.masks), key=len)
        return Rowids(masks={
            at: both for at, mask in few.items()
            if (both := mask & many.get(at, 0))
        })

    def __contains__(self, rowid):
        return self.masks.get(rowid >> SHIFT, 0) >> (rowid & LOW) & 1 == 1

    def __iter__(self):
        for at, mask in self.chunks():
            yield from rowids_of(mask, at << SHIFT)

    def __len__(self):
        return sum(mask.bit_count() for mask in self.masks.values())

    def chunk(self, at):
        """The mask over chunk *at* of rowid space."""
        return self.masks.get(at, 0)

    def chunks(self, start=0):
        """``(chunk index, mask)`` of the rowids from *start* up, a
        chunk that holds any at a time, ascending."""
        first = start >> SHIFT
        for at in sorted(self.masks):
            mask = self.masks[at]
            if at == first:
                mask &= -1 << (start & LOW)
            if at >= first and mask:
                yield at, mask


class Bits(Rowids):
    """The bitset posting form: :class:`Rowids` that knows its size and
    last chunk, edited in place, one chunk rewritten per rowid."""

    __slots__ = ("count", "top")

    def __init__(self, posting=()):
        self.masks = {}
        self.count = 0
        self.top = -1
        self.update(posting)

    def __len__(self):
        return self.count

    def add(self, rowid):
        """Take in *rowid*, not held; returns the bytes that took (as
        do ``discard`` and ``update``, of what they give and take)."""
        at = rowid >> SHIFT
        held = self.masks.get(at, 0)
        self.masks[at] = held | 1 << (rowid & LOW)
        if at > self.top:
            self.top = at
        self.count += 1
        return 0 if held else _CHUNK_BYTES

    def discard(self, rowid):
        at = rowid >> SHIFT
        self.masks[at] ^= 1 << (rowid & LOW)
        self.count -= 1
        if self.masks[at]:
            return 0
        del self.masks[at]
        if at == self.top:
            self.top = max(self.masks, default=-1)
        return -_CHUNK_BYTES

    def update(self, other):
        """OR in posting *other*, which shares no rowid with this one."""
        held = len(self.masks)
        for at, mask in other.chunks():
            self.masks[at] = self.masks.get(at, 0) | mask
            if at > self.top:
                self.top = at
        self.count += len(other)
        return (len(self.masks) - held) * _CHUNK_BYTES

    def settled(self):
        """This posting in the form the size rule gives it now; None
        when it holds nothing."""
        if not self.count:
            return None
        span = (self.top << SHIFT) + self.masks[self.top].bit_length()
        return Sparse(self) if self.count << _DEMOTE < span else self

    def nbytes(self):
        return len(self.masks) * _CHUNK_BYTES

    def dump(self):
        """As bytes pieces: ``<count:I><chunks:I>``, the chunk indexes
        ascending, then each chunk's mask, ``WIDTH`` bits little-endian."""
        ats = array("I", sorted(self.masks))
        return [_BITS_HEAD.pack(self.count, len(ats)), _word_bytes(ats)] + [
            self.masks[at].to_bytes(_CHUNK_BYTES, "little") for at in ats
        ]

    @classmethod
    def load(cls, view, offset):
        """The posting ``dump`` wrote at *offset* of *view*, and the
        offset past it."""
        count, chunks = _BITS_HEAD.unpack_from(view, offset)
        ats, offset = _words(view, offset + _BITS_HEAD.size, chunks)
        posting = cls.__new__(cls)  # __init__ would count the bits
        posting.masks = masks = {}
        for at in ats:
            end = offset + _CHUNK_BYTES
            masks[at] = int.from_bytes(view[offset:end], "little")
            offset = end
        posting.count = count
        posting.top = max(ats, default=-1)
        return posting, offset


class Sparse:
    """The array posting form: ascending unsigned 32-bit rowids."""

    __slots__ = ("rowids",)

    def __init__(self, rowids=()):
        self.rowids = array("I", rowids)

    def __len__(self):
        return len(self.rowids)

    def __iter__(self):
        return iter(self.rowids)

    def __contains__(self, rowid):
        at = bisect_left(self.rowids, rowid)
        return at < len(self.rowids) and self.rowids[at] == rowid

    def add(self, rowid):
        rowids = self.rowids
        if not rowids or rowid > rowids[-1]:
            rowids.append(rowid)  # fresh rowids are monotonic
        else:
            insort(rowids, rowid)
        return rowids.itemsize

    def discard(self, rowid):
        self.rowids.pop(bisect_left(self.rowids, rowid))
        return -self.rowids.itemsize

    def update(self, other):
        rowids = self.rowids
        held = len(rowids)
        rowids.extend(other)
        if 0 < held < len(rowids) and rowids[held] < rowids[held - 1]:
            self.rowids = array("I", sorted(rowids))
        return (len(rowids) - held) * rowids.itemsize

    def chunk(self, at):
        rowids = self.rowids
        base = at << SHIFT
        start = bisect_left(rowids, base)
        stop = bisect_left(rowids, base + WIDTH, start)
        return lift(rowids[start:stop], base) if start < stop else 0

    def chunks(self, start=0):
        return spans(self.rowids, start)

    def settled(self):
        rowids = self.rowids
        if not rowids:
            return None
        return Bits(self) if len(rowids) << _PROMOTE > rowids[-1] else self

    def nbytes(self):
        return len(self.rowids) * self.rowids.itemsize

    def dump(self):
        """As bytes pieces: ``<count:I>``, then the rowids, 32 bits
        each little-endian."""
        return [_SPARSE_HEAD.pack(len(self.rowids)), _word_bytes(self.rowids)]

    @classmethod
    def load(cls, view, offset):
        (count,) = _SPARSE_HEAD.unpack_from(view, offset)
        posting = cls()
        posting.rowids, offset = _words(view, offset + _SPARSE_HEAD.size, count)
        return posting, offset
