"""Store Forwarding Cache (SFC) -- Section 2.3 of the paper.

The SFC replaces the store queue's associative forwarding CAM with a small
tagged set-associative cache.  Each line holds the *cumulative* in-flight
value of one aligned 8-byte memory word, a per-byte valid mask, and a
per-byte corruption mask:

* stores write their bytes as they complete (setting valid, clearing
  corrupt);
* loads read with an indexed lookup -- a *full match* (all needed bytes
  valid and clean) forwards, a *partial match* or *corrupt* byte sends the
  load back to the scheduler;
* a partial pipeline flush cannot tell which bytes came from canceled
  stores, so it marks every valid byte corrupt (the paper's corruption
  mechanism);
* a full pipeline flush simply clears the SFC.

An entry is freed when the latest store to its word retires.  Canceled
stores never retire, so their entries are reclaimed by *watermark
scrubbing*: once every in-flight sequence number exceeds an entry's
``last_store_seq``, the entry's writer is certainly retired or canceled and
the entry is dead (see DESIGN.md, "Entry reclamation").

Section 3.2 sketches an alternative to the corruption masks: track the
*flush endpoints* -- the sequence-number window of each partial flush --
plus each byte's writer sequence number, and replay a load only when a
byte it needs was written by a store whose number falls inside a recorded
window (i.e. the byte really came from a canceled store).
``SFCConfig(corruption_mode="endpoints")`` selects that scheme; when the
endpoint buffer overflows it falls back to a blanket corruption marking,
keeping it conservative.

Hot-path notes: line data lives in a plain int (little-endian word value)
rather than a bytearray, byte-select masks come from precomputed tables
indexed ``[offset][nbytes]``, and the overwhelmingly common case of an
access contained in one aligned word takes a fast path that allocates
nothing.  Only accesses that straddle a word boundary walk the general
two-word loop.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..obs.metrics import declare_metric
from ..stats.counters import Counters

# -- declared metrics (metadata only; see repro.obs.metrics) -----------------
for _name, _unit, _desc in (
    ("sfc_load_lookups", "accesses", "loads that probed the SFC"),
    ("sfc_store_writes", "accesses", "stores that wrote the SFC"),
    ("sfc_forwards", "events", "loads fully satisfied from the SFC"),
    ("sfc_set_conflicts", "events",
     "stores that found no SFC way available"),
    ("sfc_corrupt_hits", "events",
     "loads that hit an SFC word marked corrupt"),
    ("sfc_partial_matches", "events",
     "loads that only partially matched SFC bytes"),
    ("sfc_partial_flushes", "events",
     "partial-flush cleanups applied to the SFC"),
    ("sfc_endpoint_overflows", "events",
     "per-word endpoint-list overflows during partial flushes"),
    ("sfc_full_flushes", "events", "full SFC invalidations"),
):
    declare_metric(_name, subsystem="sfc", description=_desc, unit=_unit)

LINE_BYTES = 8
LINE_SHIFT = 3
FULL_MASK = 0xFF

# Load lookup outcomes.
SFC_HIT = "hit"
SFC_MISS = "miss"
SFC_PARTIAL = "partial"
SFC_CORRUPT = "corrupt"


#: Corruption-handling schemes for partial pipeline flushes.
CORRUPTION_MASK = "mask"            # Section 2.3: blanket corruption bits
CORRUPTION_ENDPOINTS = "endpoints"  # Section 3.2: flush-endpoint windows

#: ``_BIT_MASKS[offset][nbytes]`` -- per-byte bit mask selecting ``nbytes``
#: bytes starting at ``offset`` (the hardware's byte-enable vector).
_BIT_MASKS = tuple(
    tuple(((1 << n) - 1) << o for n in range(LINE_BYTES - o + 1))
    for o in range(LINE_BYTES))

#: ``_DATA_MASKS[offset][nbytes]`` -- the same selection widened to data
#: bits, for masking the line's integer word value.
_DATA_MASKS = tuple(
    tuple(((1 << (8 * n)) - 1) << (8 * o)
          for n in range(LINE_BYTES - o + 1))
    for o in range(LINE_BYTES))

#: ``_SIZE_MASKS[size]`` -- low ``size`` bytes of a value.
_SIZE_MASKS = tuple((1 << (8 * n)) - 1 for n in range(LINE_BYTES + 1))


class SFCConfig:
    """Geometry and corruption policy of the store forwarding cache."""

    __slots__ = ("num_sets", "assoc", "corruption_mode",
                 "flush_endpoint_slots")

    def __init__(self, num_sets: int = 128, assoc: int = 2,
                 corruption_mode: str = CORRUPTION_MASK,
                 flush_endpoint_slots: int = 8):
        if num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        if corruption_mode not in (CORRUPTION_MASK, CORRUPTION_ENDPOINTS):
            raise ValueError(
                f"unknown corruption mode {corruption_mode!r}")
        self.num_sets = num_sets
        self.assoc = assoc
        self.corruption_mode = corruption_mode
        #: Number of flush windows tracked before falling back to a
        #: blanket corruption marking ("the performance of this mechanism
        #: would depend on the number of flush endpoints tracked").
        self.flush_endpoint_slots = flush_endpoint_slots

    def to_dict(self) -> dict:
        """Canonical JSON-serializable view (experiment-cache keying)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self) -> str:
        return (f"SFCConfig(num_sets={self.num_sets}, assoc={self.assoc}, "
                f"corruption_mode={self.corruption_mode!r})")


class _SFCEntry:
    __slots__ = ("tag", "data", "valid_mask", "corrupt_mask",
                 "last_store_seq", "writer_seqs")

    def __init__(self, tag: int):
        self.tag = tag                      # aligned word index (addr >> 3)
        self.data = 0                       # little-endian word value
        self.valid_mask = 0
        self.corrupt_mask = 0
        self.last_store_seq = -1
        #: Per-byte writer sequence numbers (endpoints mode only).
        self.writer_seqs: Optional[List[int]] = None


def _byte_mask(offset: int, nbytes: int) -> int:
    """Bit mask selecting ``nbytes`` bytes starting at ``offset``."""
    return ((1 << nbytes) - 1) << offset


def _split_words(addr: int, size: int) -> List[Tuple[int, int, int]]:
    """Split an access into (word_index, offset_in_word, nbytes) pieces."""
    pieces = []
    remaining = size
    while remaining:
        word = addr >> LINE_SHIFT
        offset = addr & (LINE_BYTES - 1)
        nbytes = min(remaining, LINE_BYTES - offset)
        pieces.append((word, offset, nbytes))
        addr += nbytes
        remaining -= nbytes
    return pieces


class StoreForwardingCache:
    """Address-indexed store-to-load forwarding cache."""

    def __init__(self, config: SFCConfig, counters: Optional[Counters] = None):
        self.config = config
        self.counters = counters if counters is not None else Counters()
        self._set_mask = config.num_sets - 1
        self._assoc = config.assoc
        self._sets: List[List[_SFCEntry]] = [
            [] for _ in range(config.num_sets)]
        #: Monotone counter bumped on every entry free; the scheduler's
        #: stall-bit heuristic (Section 2.4.3) watches it.
        self.eviction_events = 0
        self._endpoints_mode = \
            config.corruption_mode == CORRUPTION_ENDPOINTS
        #: Active flush windows [(lo, hi)] in endpoints mode: sequence
        #: numbers of canceled instructions.
        self._flush_windows: List[Tuple[int, int]] = []
        self._c_load_lookups = self.counters.cell("sfc_load_lookups")
        self._c_store_writes = self.counters.cell("sfc_store_writes")
        self._c_forwards = self.counters.cell("sfc_forwards")

    # -- internals ------------------------------------------------------------

    def _find(self, word: int) -> Optional[_SFCEntry]:
        for entry in self._sets[word & self._set_mask]:
            if entry.tag == word:
                return entry
        return None

    def _scrub_set(self, ways: List[_SFCEntry], watermark: int) -> None:
        """Drop dead ways: their last writer retired or was canceled."""
        alive = [e for e in ways if e.last_store_seq >= watermark]
        if len(alive) != len(ways):
            self.eviction_events += len(ways) - len(alive)
            ways[:] = alive

    # -- store path -----------------------------------------------------------

    def probe_store(self, addr: int, size: int, watermark: int) -> bool:
        """Can a store of ``size`` bytes at ``addr`` allocate its entries?

        Scrubs dead ways first; returns False on a set conflict, in which
        case the memory unit replays the store (Section 2.2's structural-
        conflict rule applies to the SFC as well).
        """
        sets = self._sets
        set_mask = self._set_mask
        assoc = self._assoc
        word = addr >> LINE_SHIFT
        last_word = (addr + size - 1) >> LINE_SHIFT
        while True:
            ways = sets[word & set_mask]
            for entry in ways:
                if entry.tag == word:
                    break
            else:
                if len(ways) >= assoc:
                    self._scrub_set(ways, watermark)
                if len(ways) >= assoc:
                    self.counters.incr("sfc_set_conflicts")
                    return False
            if word == last_word:
                return True
            word += 1

    def store_write(self, addr: int, size: int, value: int, seq: int,
                    watermark: int = 0) -> None:
        """Write a completing store's bytes (caller must have probed)."""
        word = addr >> LINE_SHIFT
        offset = addr & (LINE_BYTES - 1)
        data_int = value & _SIZE_MASKS[size] if size <= LINE_BYTES \
            else value & ((1 << (8 * size)) - 1)
        remaining = size
        endpoints = self._endpoints_mode
        while remaining:
            nbytes = LINE_BYTES - offset
            if nbytes > remaining:
                nbytes = remaining
            entry = self._find(word)
            if entry is None:
                entry = _SFCEntry(word)
                self._sets[word & self._set_mask].append(entry)
            elif entry.last_store_seq < watermark:
                # The entry is dead (its writers all retired or were
                # canceled); recycle it rather than inheriting stale
                # valid/corrupt bytes.
                entry.valid_mask = 0
                entry.corrupt_mask = 0
            mask = _BIT_MASKS[offset][nbytes]
            shift = 8 * offset
            entry.data = (entry.data & ~_DATA_MASKS[offset][nbytes]) | \
                ((data_int & _SIZE_MASKS[nbytes]) << shift)
            entry.valid_mask |= mask
            entry.corrupt_mask &= ~mask
            if seq > entry.last_store_seq:
                entry.last_store_seq = seq
            if endpoints:
                writer_seqs = entry.writer_seqs
                if writer_seqs is None:
                    writer_seqs = entry.writer_seqs = [-1] * LINE_BYTES
                for i in range(offset, offset + nbytes):
                    writer_seqs[i] = seq
            data_int >>= 8 * nbytes
            remaining -= nbytes
            word += 1
            offset = 0
        self._c_store_writes.value += 1

    def on_store_retire(self, addr: int, size: int, seq: int) -> None:
        """Free entries whose latest store is the retiring one."""
        sets = self._sets
        set_mask = self._set_mask
        word = addr >> LINE_SHIFT
        last_word = (addr + size - 1) >> LINE_SHIFT
        while True:
            ways = sets[word & set_mask]
            for i, entry in enumerate(ways):
                if entry.tag == word and entry.last_store_seq == seq:
                    del ways[i]
                    self.eviction_events += 1
                    break
            if word == last_word:
                return
            word += 1

    # -- load path ------------------------------------------------------------

    def load_read(self, addr: int, size: int,
                  watermark: int = 0) -> Tuple[str, Optional[int]]:
        """Look up a load.  Returns ``(status, value)``.

        ``SFC_HIT``: every needed byte valid and clean; value forwarded.
        ``SFC_CORRUPT``: some needed byte is corrupt; replay the load.
        ``SFC_PARTIAL``: some but not all needed bytes valid; replay.
        ``SFC_MISS``: no needed byte in flight; read the cache hierarchy.

        Dead entries (last writer older than the watermark, hence retired
        or canceled) are ignored: every retired value is already in memory
        and canceled bytes must not be forwarded.
        """
        self._c_load_lookups.value += 1
        endpoints = self._endpoints_mode
        if endpoints:
            self._prune_windows(watermark)
        word = addr >> LINE_SHIFT
        offset = addr & (LINE_BYTES - 1)
        value = 0
        consumed = 0
        valid_bytes = 0
        partial = False
        remaining = size
        while remaining:
            nbytes = LINE_BYTES - offset
            if nbytes > remaining:
                nbytes = remaining
            entry = self._find(word)
            if entry is not None and entry.last_store_seq >= watermark:
                mask = _BIT_MASKS[offset][nbytes]
                if entry.corrupt_mask & mask:
                    self.counters.incr("sfc_corrupt_hits")
                    return SFC_CORRUPT, None
                have = entry.valid_mask & mask
                if endpoints and have and entry.writer_seqs is not None:
                    writer_seqs = entry.writer_seqs
                    for i in range(offset, offset + nbytes):
                        bit = 1 << i
                        if not have & bit:
                            continue
                        writer = writer_seqs[i]
                        if self._seq_canceled(writer):
                            # The byte came from a canceled store.
                            self.counters.incr("sfc_corrupt_hits")
                            return SFC_CORRUPT, None
                        if writer < watermark:
                            # Writer retired or aged out: the committed
                            # memory state holds the right value.
                            have &= ~bit
                if have == mask:
                    value |= ((entry.data >> (8 * offset)) &
                              _SIZE_MASKS[nbytes]) << (8 * consumed)
                    valid_bytes += nbytes
                elif have:
                    # Keep scanning: a corrupt byte in a later word
                    # outranks this partial match.
                    partial = True
            consumed += nbytes
            remaining -= nbytes
            word += 1
            offset = 0
        if valid_bytes == size:
            self._c_forwards.value += 1
            return SFC_HIT, value
        if valid_bytes or partial:
            self.counters.incr("sfc_partial_matches")
            return SFC_PARTIAL, None
        return SFC_MISS, None

    # -- flush handling ---------------------------------------------------------

    def on_partial_flush(self, flush_lo: int = -1,
                         flush_hi: int = -1) -> None:
        """Handle a partial pipeline flush.

        In the default *mask* mode every valid byte is marked corrupt
        (Section 2.3): a partial flush may have canceled completed stores
        whose bytes are indistinguishable from live ones, so all in-flight
        bytes become suspect until overwritten or reclaimed.

        In *endpoints* mode (Section 3.2's alternative) the canceled
        sequence-number window ``[flush_lo, flush_hi]`` is recorded
        instead, and only loads whose bytes were written inside a recorded
        window replay.  If no slot is free (or the window is unknown),
        fall back to the blanket marking, staying conservative.
        """
        self.counters.incr("sfc_partial_flushes")
        if self._endpoints_mode and flush_lo >= 0 and flush_hi >= flush_lo:
            if len(self._flush_windows) < self.config.flush_endpoint_slots:
                self._flush_windows.append((flush_lo, flush_hi))
                return
            self.counters.incr("sfc_endpoint_overflows")
        for ways in self._sets:
            for entry in ways:
                entry.corrupt_mask |= entry.valid_mask

    def _seq_canceled(self, seq: int) -> bool:
        """Is ``seq`` inside a recorded flush window (endpoints mode)?"""
        for lo, hi in self._flush_windows:
            if lo <= seq <= hi:
                return True
        return False

    def _prune_windows(self, watermark: int) -> None:
        """Drop windows whose youngest canceled number has aged out.

        Bytes written inside a dropped window have writer numbers below
        the watermark and are treated as absent by ``load_read``, so
        dropping the window never lets a canceled value leak.
        """
        if self._flush_windows:
            self._flush_windows = [
                (lo, hi) for lo, hi in self._flush_windows
                if hi >= watermark]

    def on_full_flush(self) -> None:
        """Discard everything (full pipeline flush)."""
        self.counters.incr("sfc_full_flushes")
        self._flush_windows.clear()
        for ways in self._sets:
            if ways:
                self.eviction_events += len(ways)
                ways.clear()

    def mark_corrupt(self, addr: int, size: int) -> None:
        """Corrupt-mark one access range (Section 2.4.2 recovery policy)."""
        for word, offset, nbytes in _split_words(addr, size):
            entry = self._find(word)
            if entry is not None:
                entry.corrupt_mask |= _BIT_MASKS[offset][nbytes]

    def scrub(self, watermark: int) -> None:
        """Reclaim every dead entry (used by the stall-bit fallback)."""
        if self._endpoints_mode:
            self._prune_windows(watermark)
        for ways in self._sets:
            if ways:
                self._scrub_set(ways, watermark)

    # -- introspection -----------------------------------------------------------

    def occupancy(self) -> int:
        """Number of live entries (for tests and reports)."""
        return sum(len(ways) for ways in self._sets)
