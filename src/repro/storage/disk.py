"""A simulated page-oriented disk with an LRU buffer pool.

All of XRANK's persistent structures (inverted-list files, B+-trees, hash
indexes) live on one :class:`SimulatedDisk`.  Pages are immutable ``bytes``
snapshots up to ``page_size`` long.  Reads go through an LRU buffer pool:

* a pool hit costs nothing and increments ``cache_hits``;
* a pool miss increments ``page_reads`` and is classified *sequential* when
  the missed page id extends one of a small number of recently active read
  streams (page id = some stream's last page + 1), otherwise *random*.
  Stream tracking models per-file OS readahead: a DIL merge that alternates
  between two inverted lists still advances each list sequentially, and a
  real disk (or its readahead cache) serves that pattern at sequential
  throughput.  The sequential/random distinction is what makes DIL's full
  scans cheap per page and RDIL's probes expensive per page, reproducing
  the paper's trade-off.

"Cold cache" experiments (the paper's default, Section 5.1) call
:meth:`drop_cache` before each query; warm-cache runs simply do not.

:meth:`SimulatedDisk.read_decoded` lets a structure that parses its pages
(the B+-tree's internal nodes and leaves) parse each one once per
buffer-pool residency: the decoded *frame* hangs off the page's pool
entry and goes when the page does.

Besides the pages, a disk keeps two packed per-page columns: a CRC32C
(checksummed mode) and the row of the list that owns the page.  The
owner's name is not stored: :meth:`SimulatedDisk.owner_of` asks the
:class:`~repro.storage.listfile.ListDirectory` s attached to the disk.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from array import array
from collections import OrderedDict
from typing import Callable, Optional, Sequence, Tuple, TypeVar

from ..config import StorageParams
from ..errors import CorruptPageError, PageError, ReadFaultError, StorageError
from .checksum import crc32c
from .iostats import IOStats

T = TypeVar("T")

#: Returned by :meth:`BufferPool.frame` when no usable frame is kept.
_NO_FRAME = object()

#: ``_owner_rows`` entry of a page no list owns.
_NO_ROW = -1


def page_run(page_ids: Sequence[int]) -> Tuple[int, int]:
    """``(first, count)`` of page ids that must be consecutive."""
    count = len(page_ids)
    first = page_ids[0] if count else 0
    if any(page_id != first + i for i, page_id in enumerate(page_ids)):
        raise StorageError(f"pages {list(page_ids)} are not consecutive")
    return first, count


class BufferPool:
    """Fixed-capacity LRU cache of page ids and their decoded frames.

    Each resident page may carry frames, ``{decode: (data, decode(data))}``,
    one per decoder that has parsed it.  A frame is served only for the
    very ``bytes`` object it was decoded from (an ``is`` check): a write,
    a free and reallocation, a bit flip or a torn read all put a different
    object in front of the decoder, so no invalidation hook is needed.
    Frames go with their page — LRU eviction, :meth:`evict`,
    :meth:`clear` — so memory is bounded by capacity × one decoded page
    per decoder, and a cold query decodes every page it misses.  They are
    derived state and are not pickled.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise PageError("buffer pool capacity must be positive")
        self.capacity = capacity
        self._pages: "OrderedDict[int, Optional[dict]]" = OrderedDict()

    def __getstate__(self) -> dict:
        return {"capacity": self.capacity, "_pages": OrderedDict.fromkeys(self._pages)}

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def touch(self, page_id: int) -> bool:
        """Record an access; returns True on a hit."""
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            return True
        self._pages[page_id] = None
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
        return False

    def frame(self, page_id: int, decode: Callable, data: bytes):
        """The frame ``decode`` made of exactly ``data``, else ``_NO_FRAME``.

        Serving a frame is an access: the page becomes most recently used.
        """
        frames = self._pages.get(page_id)
        if frames is not None:
            kept = frames.get(decode)
            if kept is not None and kept[0] is data:
                self._pages.move_to_end(page_id)
                return kept[1]
        return _NO_FRAME

    def keep(self, page_id: int, decode: Callable, data: bytes, frame) -> None:
        """Attach a frame to a resident page (a no-op once it has left)."""
        if page_id not in self._pages:
            return
        frames = self._pages[page_id]
        if frames is None:
            frames = self._pages[page_id] = {}
        frames[decode] = (data, frame)

    def frames(self):
        """Every kept ``(page_id, decode, data, frame)``, in LRU order."""
        return [
            (page_id, decode, data, frame)
            for page_id, frames in self._pages.items()
            if frames
            for decode, (data, frame) in frames.items()
        ]

    def evict(self, page_id: int) -> None:
        """Drop one page from the pool if present."""
        self._pages.pop(page_id, None)

    def clear(self) -> None:
        """Drop every cached page."""
        self._pages.clear()

    def __len__(self) -> int:
        return len(self._pages)


class SimulatedDisk:
    """Page store + buffer pool + I/O statistics."""

    #: How many concurrent sequential read streams the model tracks.
    MAX_STREAMS = 8

    def __init__(self, params: Optional[StorageParams] = None):
        self.params = params or StorageParams()
        self.pages: list = []
        # Page ids in LRU order, and the decoded frames riding on them.
        self.pool = BufferPool(self.params.buffer_pool_pages)  # guarded by: self._lock
        self.stats = IOStats()
        # Last missed page id of each active stream, most recent last.
        self._streams: "OrderedDict[int, None]" = OrderedDict()
        # Free page ids, kept sorted for consecutive-run search.
        self._free: list = []
        # CRC32C per page, parallel to ``pages`` (checksummed mode only).
        self._checksums: Optional[array] = (
            array("I") if self.params.checksums else None
        )
        # Row of the owning list per page, parallel to ``pages``; the
        # attached directories turn a row into "dil:xql".  Held weakly:
        # a directory points at its disk, and no cycle may keep a dropped
        # index's pages alive until the next cyclic collection.
        self._owner_rows = array("i")
        self._directories: "weakref.WeakSet" = weakref.WeakSet()
        #: Optional :class:`repro.faults.FaultPlan` consulted on every
        #: buffer-pool miss; None (the default) injects nothing.
        self.fault_plan = None
        # Guards the buffer pool / stream-tracking bookkeeping, which is
        # mutated by every read — concurrent queries share one disk.
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        del state["_directories"]  # each directory re-attaches on load
        return state

    def __setstate__(self, state: dict) -> None:
        state.setdefault("_checksums", None)  # pre-checksum pickles
        if isinstance(state["_checksums"], list):
            state["_checksums"] = array("I", state["_checksums"])
        if "_owner_rows" not in state:
            # Engine files before the list directories labelled pages in a
            # dict; the indexes' directories re-assign every list page.
            state.pop("_owners", None)
            state["_owner_rows"] = array("i", [_NO_ROW]) * len(state["pages"])
        state.setdefault("fault_plan", None)
        self.__dict__.update(state)
        self._directories = weakref.WeakSet()
        self._lock = threading.Lock()

    # -- allocation / writing ------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self.params.page_size

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    def allocate(self, data: bytes = b"") -> int:
        """Allocate a new page initialized with ``data``; returns its id.

        Freed pages are reused (smallest id first) before the file grows.
        """
        self._check_size(data)
        if self._free:
            page_id = self._free.pop(0)
            self.pages[page_id] = bytes(data)
        else:
            page_id = len(self.pages)
            self.pages.append(bytes(data))
            self._owner_rows.append(_NO_ROW)
            if self._checksums is not None:
                self._checksums.append(0)
        self._record_write(page_id, data)
        self.stats.record_writes()
        return page_id

    def allocate_run(self, pages: list) -> list:
        """Allocate consecutive page ids for a list of page buffers.

        Inverted-list files need consecutive ids so scans stay sequential;
        this looks for a long-enough run in the free list before extending
        the file.  Returns the allocated ids, in order.
        """
        for data in pages:
            self._check_size(data)
        count = len(pages)
        if count == 0:
            return []
        run_start = self._find_free_run(count)
        if run_start is None:
            first = len(self.pages)
            self.pages.extend(bytes(p) for p in pages)
            self._owner_rows.extend(array("i", [_NO_ROW]) * count)
            if self._checksums is not None:
                self._checksums.extend(array("I", [0]) * count)
            ids = list(range(first, first + count))
        else:
            ids = list(range(run_start, run_start + count))
            for page_id in ids:
                self._free.remove(page_id)
            for page_id, data in zip(ids, pages):
                self.pages[page_id] = bytes(data)
        for page_id, data in zip(ids, pages):
            self._record_write(page_id, data)
        self.stats.record_writes(count)
        return ids

    def _record_write(self, page_id: int, data: bytes) -> None:
        """Maintain the checksum column for one written page."""
        if self._checksums is not None:
            self._checksums[page_id] = crc32c(bytes(data))

    # -- ownership ------------------------------------------------------------------

    def attach(self, directory) -> None:
        """Let ``directory`` name the owners of the pages it assigns, for
        as long as it lives."""
        self._directories.add(directory)

    def assign_owner(self, first: int, count: int, row: int) -> None:
        """Mark pages ``first .. first+count-1`` as held by directory row ``row``."""
        self._owner_rows[first : first + count] = array("i", [row]) * count

    def owner_of(self, page_id: int) -> str:
        """The owning list's label, ``"dil:xql"`` ("" for any other page)."""
        if 0 <= page_id < len(self._owner_rows):
            row = self._owner_rows[page_id]
            if row != _NO_ROW:
                for directory in self._directories:
                    owner = directory.owner(row, page_id)
                    if owner:
                        return owner
        return ""

    def _find_free_run(self, count: int):
        """Smallest start of ``count`` consecutive free page ids, or None."""
        run_start = None
        run_length = 0
        previous = None
        for page_id in self._free:
            if previous is not None and page_id == previous + 1:
                run_length += 1
            else:
                run_start = page_id
                run_length = 1
            previous = page_id
            if run_length == count:
                return run_start
        return None

    def free(self, page_id: int) -> None:
        """Release a page for reuse; its contents become invalid."""
        self._check_page_id(page_id)
        if page_id in self._free:
            raise PageError(f"page {page_id} is already free")
        self.pages[page_id] = b""
        if self._checksums is not None:
            self._checksums[page_id] = crc32c(b"")
        self._owner_rows[page_id] = _NO_ROW
        with self._lock:
            self.pool.evict(page_id)
        bisect.insort(self._free, page_id)

    @property
    def num_free_pages(self) -> int:
        return len(self._free)

    def write(self, page_id: int, data: bytes) -> None:
        """Overwrite an existing page."""
        self._check_page_id(page_id)
        self._check_size(data)
        self.pages[page_id] = bytes(data)
        self._record_write(page_id, data)
        self.stats.record_writes()
        with self._lock:
            self.pool.touch(page_id)

    def _check_size(self, data: bytes) -> None:
        if len(data) > self.params.page_size:
            raise PageError(
                f"page data of {len(data)} bytes exceeds page size "
                f"{self.params.page_size}"
            )

    def _check_page_id(self, page_id: int) -> None:
        if not 0 <= page_id < len(self.pages):
            raise PageError(f"page id {page_id} out of range")

    # -- reading --------------------------------------------------------------------

    def read(self, page_id: int) -> bytes:
        """Read a page through the buffer pool, charging I/O on a miss.

        A buffer-pool hit returns the cached page unchecked (the pool
        models trusted RAM).  A miss models the actual disk fetch: the
        fault plan (if any) may fail or corrupt it, and in checksummed
        mode the page's CRC32C is verified.  Transient failures are
        retried in place up to ``StorageParams.read_retries`` times;
        what survives escapes as :class:`~repro.errors.ReadFaultError`
        or :class:`~repro.errors.CorruptPageError`, with the failing
        page evicted from the pool so a later retry re-fetches it.
        """
        self._check_page_id(page_id)
        with self._lock:
            if self.pool.touch(page_id):
                self.stats.record_hit()
                return self.pages[page_id]
            if page_id - 1 in self._streams:
                sequential = True
                del self._streams[page_id - 1]
            else:
                sequential = False
            self.stats.record_read(sequential)
            self._streams[page_id] = None
            while len(self._streams) > self.MAX_STREAMS:
                self._streams.popitem(last=False)
            attempts = 0
            while True:
                try:
                    return self._fetch(page_id)
                except (ReadFaultError, CorruptPageError):
                    self.pool.evict(page_id)
                    if attempts >= self.params.read_retries:
                        raise
                    attempts += 1
                    self.stats.record_retry()

    def _fetch(self, page_id: int) -> bytes:
        """One simulated disk fetch: fault injection + checksum verify.

        Caller holds ``_lock`` and has already charged the miss.
        """
        data = self.pages[page_id]
        plan = self.fault_plan
        if plan is not None:
            from ..faults import (
                SITE_READ_BITFLIP,
                SITE_READ_ERROR,
                SITE_READ_SLOW,
                SITE_READ_TORN,
            )

            if plan.should_fire(SITE_READ_SLOW):
                self.stats.record_slow_read()
            if plan.should_fire(SITE_READ_ERROR):
                self.stats.record_read_error()
                raise ReadFaultError(page_id)
            if plan.should_fire(SITE_READ_BITFLIP) and data:
                # Bit rot: the *stored* page is damaged, persistently.
                position = plan.choose(SITE_READ_BITFLIP, len(data) * 8)
                mutated = bytearray(data)
                mutated[position // 8] ^= 1 << (position % 8)
                self.pages[page_id] = bytes(mutated)
                data = self.pages[page_id]
            if plan.should_fire(SITE_READ_TORN) and data:
                # Torn read: this fetch returns a truncated copy; the
                # stored page is intact, so a retry sees the real bytes.
                data = data[: plan.choose(SITE_READ_TORN, len(data))]
        if self._checksums is not None and data is self.pages[page_id]:
            if crc32c(data) != self._checksums[page_id]:
                self.stats.record_corrupt_page()
                raise CorruptPageError(page_id, self.owner_of(page_id))
        elif self._checksums is not None:
            # Torn copy: always a mismatch against the stored checksum.
            self.stats.record_corrupt_page()
            raise CorruptPageError(page_id, self.owner_of(page_id))
        return data

    def read_decoded(self, page_id: int, decode: Callable[[bytes], T]) -> T:
        """``decode(read(page_id))``, decoded once per pool residency.

        The page is accounted exactly as :meth:`read` accounts it — same
        hit/miss and sequential/random counts, fault injection, checksum
        and retries.  A resident page with a frame ``decode`` made of its
        current bytes is a pool hit that returns that frame.  Anything
        else goes through :meth:`read`, and the fresh decode of what it
        returns is kept for the next caller.  Frames are shared: callers
        must not mutate them.
        """
        self._check_page_id(page_id)
        with self._lock:
            frame = self.pool.frame(page_id, decode, self.pages[page_id])
            if frame is not _NO_FRAME:
                self.stats.record_hit()
                return frame
        data = self.read(page_id)
        frame = decode(data)
        with self._lock:
            self.pool.keep(page_id, decode, data, frame)
        return frame

    def pooled_frames(self) -> list:
        """Every kept ``(page_id, decode, data, frame)``, for validators."""
        with self._lock:
            return self.pool.frames()

    # -- cache control ---------------------------------------------------------------

    def drop_cache(self) -> None:
        """Empty the buffer pool and its frames (the paper's cold OS cache)."""
        with self._lock:
            self.pool.clear()
            self._streams.clear()

    def reset_stats(self) -> None:
        """Zero the I/O counters."""
        self.stats.reset()

    # -- space accounting -------------------------------------------------------------

    def bytes_used(self) -> int:
        """Total bytes of live data (not rounded up to page granularity)."""
        return sum(len(page) for page in self.pages)

    def bytes_allocated(self) -> int:
        """Total bytes at page granularity (what a real disk would consume)."""
        return len(self.pages) * self.params.page_size
