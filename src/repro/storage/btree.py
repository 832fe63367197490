"""A disk-resident B+-tree keyed on Dewey IDs (paper Sections 4.3-4.4).

The paper rejected commercial B+-trees because their APIs could not express
the *longest-common-prefix* probe RDIL needs, and because two space
optimizations were impossible:

1. storing several B+-trees over short inverted lists on one shared disk
   page (Section 4.3.1) — modelled here as exact-byte space accounting
   (:attr:`BTree.index_bytes`); pages are not physically shared;
2. reusing a Dewey-ordered inverted list as the tree's leaf level so HDIL
   only pays for internal nodes (Section 4.4.1) — supported through
   *external leaves*: the tree is bulk-loaded over existing list pages and
   a decoder callback turns a raw list page back into (key, record) pairs.

Keys are :class:`DeweyId` values compared component-wise (document order).
All node accesses go through the simulated disk, so probes are charged as
random reads — the cost RDIL pays for skipping list entries.  The read-only
:class:`BTree` parses each page once per buffer-pool residency
(:meth:`~repro.storage.disk.SimulatedDisk.read_decoded`) into a frame of
keys, and searches them as component tuples; a leaf entry's
(key, payload) pair is built only when a probe takes it
(:class:`LeafFrame`).  :class:`MutableBTree` edits what it decodes, so it
parses on every read.

A :class:`BTree` is a small slotted object: its root, height, byte counts
and its leaf level as one run of consecutive pages ``(first, count)`` —
bulk-loaded leaves are allocated as a run, and external leaves are an
inverted list's pages, which are consecutive by construction.  A leaf's
neighbours are therefore ``page ± 1`` within the run.

Supported operations: :meth:`ceiling` (smallest entry >= key),
:meth:`predecessor` (largest entry < key), :meth:`longest_common_prefix`
(the RDIL probe: deepest ancestor of ``key`` with a descendant in the tree;
one descent yields both its candidates),
:meth:`range_scan` and :meth:`scan_subtree`.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import BTreeError, DeweyError, StorageError
from ..xmlmodel.dewey import (
    DeweyId, _trusted, decode_components, decode_varint, varint_tail,
)
from .disk import SimulatedDisk, page_run
from .records import RecordWriter

#: Decodes one external leaf page into its :class:`LeafFrame`.
LeafDecoder = Callable[[bytes], "LeafFrame"]

_LEAF = 0
_INTERNAL = 1
_NO_PAGE = 0  # page-id + 1 encoding, 0 means "none"


def _encode_leaf(
    entries: List[Tuple[DeweyId, bytes]], prev_page: int, next_page: int
) -> bytes:
    return _leaf_page(
        [(key.encode(), payload) for key, payload in entries], prev_page, next_page
    )


def _leaf_page(
    entries: List[Tuple[bytes, bytes]], prev_page: int, next_page: int
) -> bytes:
    """A leaf page over (encoded key, payload) pairs."""
    writer = RecordWriter()
    writer.uint(_LEAF)
    writer.uint(prev_page + 1)
    writer.uint(next_page + 1)
    writer.uint(len(entries))
    for key_bytes, payload in entries:
        writer.raw(key_bytes)
        writer.bytes_field(payload)
    return writer.getvalue()


def _decode_leaf(page: bytes) -> Tuple[int, int, List[Tuple[DeweyId, bytes]]]:
    frame = _leaf_frame(page)
    return frame.prev_page, frame.next_page, frame.entries()


def _encode_internal(entries: List[Tuple[DeweyId, int]]) -> bytes:
    writer = RecordWriter()
    writer.uint(_INTERNAL)
    writer.uint(len(entries))
    for key, child in entries:
        writer.dewey(key)
        writer.uint(child)
    return writer.getvalue()


def _decode_internal(page: bytes) -> List[Tuple[DeweyId, int]]:
    keys, children = _internal_frame(page)
    return [(_trusted(key), child) for key, child in zip(keys, children)]


# Frames: what a probe needs of a page, kept by SimulatedDisk.read_decoded
# for as long as the page stays in the buffer pool.  Keys are component
# tuples, which order exactly as DeweyIds do, so lookups are plain bisects.


def _internal_frame(page: bytes) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """(separator key tuples, child page ids) of an internal page."""
    flag, pos = decode_varint(page, 0)
    if flag != _INTERNAL:
        raise BTreeError("expected an internal page")
    count, pos = decode_varint(page, pos)
    keys: List[Tuple[int, ...]] = []
    children: List[int] = []
    for _ in range(count):
        key, pos = decode_components(page, pos)
        child, pos = decode_varint(page, pos)
        keys.append(key)
        children.append(child)
    return keys, children


class LeafFrame(NamedTuple):
    """One leaf page as a probe reads it: its keys, and where each entry's
    payload lies in the page.

    ``keys`` are the entries' Dewey IDs as component tuples, in order;
    entry ``i``'s payload is ``page[starts[i]:ends[i]]``.  An entry is
    built only when a probe or scan takes it (:meth:`entry`).  A kept
    frame is shared between threads, so nothing in it is filled in later.
    ``prev_page``/``next_page`` are an owned leaf's stored chain (-1 when
    absent; external leaves store none).  :class:`BTree` walks its leaf
    run as ``page ± 1`` instead; the validators check the chain.
    """

    keys: List[Tuple[int, ...]]
    starts: List[int]
    ends: List[int]
    page: bytes
    prev_page: int = -1
    next_page: int = -1

    def entry(self, position: int) -> Tuple[DeweyId, bytes]:
        """The (key, payload) pair at ``position``."""
        return (
            _trusted(self.keys[position]),
            self.page[self.starts[position] : self.ends[position]],
        )

    def entries(
        self, start: int = 0, stop: Optional[int] = None
    ) -> List[Tuple[DeweyId, bytes]]:
        """The (key, payload) pairs from ``start`` up to ``stop``."""
        page = self.page
        return [
            (_trusted(key), page[begin:end])
            for key, begin, end in zip(
                self.keys[start:stop], self.starts[start:stop], self.ends[start:stop]
            )
        ]


def _leaf_frame(page: bytes) -> LeafFrame:
    """One pass over an owned leaf page: key tuples and payload spans."""
    flag, pos = decode_varint(page, 0)
    if flag != _LEAF:
        raise BTreeError("expected a leaf page")
    prev_page, pos = decode_varint(page, pos)
    next_page, pos = decode_varint(page, pos)
    count, pos = decode_varint(page, pos)
    size = len(page)
    keys: List[Tuple[int, ...]] = []
    starts: List[int] = []
    ends: List[int] = []
    try:
        for _ in range(count):
            key, pos = decode_components(page, pos)
            length = page[pos]
            pos += 1
            if length > 0x7F:
                length, pos = varint_tail(page, pos, length)
            end = pos + length
            if end > size:
                raise StorageError("truncated bytes field")
            keys.append(key)
            starts.append(pos)
            ends.append(end)
            pos = end
    except IndexError:
        raise DeweyError("truncated varint") from None
    return LeafFrame(keys, starts, ends, page, prev_page - 1, next_page - 1)


class BTree:
    """Read-only (bulk-loaded) B+-tree over one inverted list."""

    __slots__ = (
        "disk",
        "root_page",
        "height",
        "num_entries",
        "internal_bytes",
        "leaf_bytes",
        "leaf_first",
        "leaf_count",
        "leaf_decoder",
    )

    def __init__(
        self,
        disk: SimulatedDisk,
        root_page: int,
        height: int,
        num_entries: int,
        internal_bytes: int,
        leaf_bytes: int,
        leaf_pages: Sequence[int],
        leaf_decoder: Optional[LeafDecoder] = None,
    ):
        self.disk = disk
        self.root_page = root_page
        self.height = height  # 1 = root is a leaf
        self.num_entries = num_entries
        self.internal_bytes = internal_bytes
        self.leaf_bytes = leaf_bytes
        self.leaf_first, self.leaf_count = page_run(leaf_pages)
        self.leaf_decoder = leaf_decoder

    def __getstate__(self) -> tuple:
        # A plain tuple: pickling keeps each state alive until the dump
        # ends, and a tuple is a fraction of a per-tree dict.
        return tuple(getattr(self, name) for name in BTree.__slots__)

    def __setstate__(self, state) -> None:
        if isinstance(state, dict):
            # Engine files before the slotted tree pickled its
            # ``__dict__``, with the leaf level as a list of page ids.
            state = dict(state, leaf_decoder=state.get("leaf_decoder"))
            state.pop("_positions", None)
            state["leaf_first"], state["leaf_count"] = page_run(
                state.pop("leaf_pages")
            )
            state = tuple(state[name] for name in BTree.__slots__)
        for name, value in zip(BTree.__slots__, state):
            setattr(self, name, value)

    @property
    def leaf_pages(self) -> range:
        """The leaf level's page ids, in key order."""
        return range(self.leaf_first, self.leaf_first + self.leaf_count)

    # -- construction -----------------------------------------------------------

    @classmethod
    def bulk_load(
        cls, disk: SimulatedDisk, entries: List[Tuple[DeweyId, bytes]]
    ) -> "BTree":
        """Build a tree that owns its leaves, from sorted (key, payload) pairs."""
        _check_sorted(entries)
        if not entries:
            root = disk.allocate(_encode_leaf([], -1, -1))
            return cls(disk, root, 1, 0, 0, len(disk.pages[root]), [root])

        page_size = disk.page_size
        # Greedily pack leaves, respecting the page size.  Each key is
        # encoded once: its bytes both size the entry and fill the page.
        leaf_groups: List[List[Tuple[bytes, bytes]]] = []
        first_keys: List[DeweyId] = []
        current: List[Tuple[bytes, bytes]] = []
        current_size = 16  # header slack
        for key, payload in entries:
            key_bytes = key.encode()
            entry_size = len(key_bytes) + len(payload) + 5
            if entry_size + 16 > page_size:
                raise BTreeError(
                    f"entry of {entry_size} bytes cannot fit one page"
                )
            if current and current_size + entry_size > page_size:
                leaf_groups.append(current)
                current = []
                current_size = 16
            if not current:
                first_keys.append(key)
            current.append((key_bytes, payload))
            current_size += entry_size
        if current:
            leaf_groups.append(current)

        # Allocate leaf pages as one run, then patch sibling pointers.
        leaf_ids = disk.allocate_run([b""] * len(leaf_groups))
        leaf_bytes = 0
        for i, group in enumerate(leaf_groups):
            prev_page = leaf_ids[i - 1] if i > 0 else -1
            next_page = leaf_ids[i + 1] if i + 1 < len(leaf_ids) else -1
            encoded = _leaf_page(group, prev_page, next_page)
            disk.write(leaf_ids[i], encoded)
            leaf_bytes += len(encoded)

        index = list(zip(first_keys, leaf_ids))
        root, height, internal_bytes = _build_internal_levels(disk, index)
        return cls(
            disk,
            root,
            height,
            len(entries),
            internal_bytes,
            leaf_bytes,
            leaf_ids,
        )

    @classmethod
    def build_over_pages(
        cls,
        disk: SimulatedDisk,
        page_index: List[Tuple[DeweyId, int]],
        leaf_decoder: LeafDecoder,
        num_entries: int,
    ) -> "BTree":
        """Build internal levels over *existing* list pages (HDIL mode).

        ``page_index`` maps the smallest key on each list page to its page
        id; pages must be in key order.  Leaf bytes are not counted against
        this tree — the inverted list already pays for them.
        """
        if not page_index:
            raise BTreeError("cannot build a tree over zero pages")
        keys = [key for key, _ in page_index]
        if any(b < a for a, b in zip(keys, keys[1:])):
            raise BTreeError("page index keys must be sorted")
        root, height, internal_bytes = _build_internal_levels(disk, page_index)
        return cls(
            disk,
            root,
            height,
            num_entries,
            internal_bytes,
            leaf_bytes=0,
            leaf_pages=[page_id for _, page_id in page_index],
            leaf_decoder=leaf_decoder,
        )

    # -- leaf access ----------------------------------------------------------------

    def _leaf_entries(self, page_id: int) -> List[Tuple[DeweyId, bytes]]:
        """A leaf's entries decoded afresh from the disk (validators' path)."""
        page = self.disk.read(page_id)
        if self.leaf_decoder is not None:
            return self.leaf_decoder(page).entries()
        return _leaf_frame(page).entries()

    def _leaf(self, page_id: int) -> LeafFrame:
        """The leaf's frame, decoded once per pool residency.

        An external leaf's frame is keyed by the tree's decoder, a module
        function that holds no reference to the tree, so a kept frame
        never keeps its tree (and with it the disk) alive.
        """
        if self.leaf_decoder is not None:
            return self.disk.read_decoded(page_id, self.leaf_decoder)
        return self.disk.read_decoded(page_id, _leaf_frame)

    def _next_leaf(self, page_id: int) -> int:
        """The page id after leaf ``page_id`` in the run, -1 at the end."""
        page_id += 1
        return page_id if page_id < self.leaf_first + self.leaf_count else -1

    def _prev_leaf(self, page_id: int) -> int:
        """The page id before leaf ``page_id`` in the run, -1 at the start."""
        return page_id - 1 if page_id > self.leaf_first else -1

    def _descend(self, key: Tuple[int, ...]) -> Tuple[int, LeafFrame]:
        """(page id, frame) of the leaf that would contain the key tuple."""
        page_id = self.root_page
        for _ in range(self.height - 1):
            keys, children = self.disk.read_decoded(page_id, _internal_frame)
            # Last child whose separator <= key; first child when below all.
            position = bisect.bisect_right(keys, key) - 1
            page_id = children[position if position > 0 else 0]
        return page_id, self._leaf(page_id)

    def _at_or_after(
        self, page_id: int, frame: LeafFrame, position: int
    ) -> Optional[Tuple[DeweyId, bytes]]:
        """The entry at ``position`` of the leaf, or the first one after
        the leaf's end; None past the last leaf."""
        while position >= len(frame.keys):
            page_id = self._next_leaf(page_id)
            if page_id == -1:
                return None
            frame = self._leaf(page_id)
            position = 0
        return frame.entry(position)

    def _before(
        self, page_id: int, frame: LeafFrame, position: int
    ) -> Optional[Tuple[DeweyId, bytes]]:
        """The entry just before ``position`` of the leaf, found in earlier
        leaves at the leaf's start; None before the first leaf."""
        while position == 0:
            page_id = self._prev_leaf(page_id)
            if page_id == -1:
                return None
            frame = self._leaf(page_id)
            position = len(frame.keys)
        return frame.entry(position - 1)

    # -- queries -----------------------------------------------------------------------

    def ceiling(self, key: DeweyId, *, with_predecessor: bool = False):
        """Smallest entry with entry key >= ``key``.

        With ``with_predecessor``, the pair ``(predecessor(key),
        ceiling(key))`` from the same descent: the ceiling is at the
        bisected position and the predecessor just before it, so a second
        leaf is read only when the position is at a leaf edge.
        """
        target = key.components
        page_id, frame = self._descend(target)
        position = bisect.bisect_left(frame.keys, target)
        after = self._at_or_after(page_id, frame, position)
        if not with_predecessor:
            return after
        return self._before(page_id, frame, position), after

    def strictly_greater(self, key: DeweyId) -> Optional[Tuple[DeweyId, bytes]]:
        """Smallest entry with entry key > ``key``."""
        target = key.components
        page_id, frame = self._descend(target)
        return self._at_or_after(
            page_id, frame, bisect.bisect_right(frame.keys, target)
        )

    def predecessor(self, key: DeweyId) -> Optional[Tuple[DeweyId, bytes]]:
        """Largest entry with entry key < ``key``."""
        target = key.components
        page_id, frame = self._descend(target)
        return self._before(
            page_id, frame, bisect.bisect_left(frame.keys, target)
        )

    def longest_common_prefix(self, key: DeweyId) -> int:
        """Length of the longest prefix of ``key`` shared with any tree key.

        This is the paper's Section 4.3.2 probe: the smallest stored ID
        >= ``key`` and its predecessor are the only candidates for the
        longest shared prefix, because the leaves are in Dewey order.
        Both come from one descent.
        """
        before, after = self.ceiling(key, with_predecessor=True)
        best = 0 if after is None else key.common_prefix_length(after[0])
        if before is not None:
            shared = key.common_prefix_length(before[0])
            if shared > best:
                return shared
        return best

    def range_scan(
        self, low: DeweyId, high_exclusive: Optional[DeweyId] = None
    ) -> Iterator[Tuple[DeweyId, bytes]]:
        """Entries with low <= key < high_exclusive, in order."""
        low_key = low.components
        high_key = high_exclusive.components if high_exclusive is not None else None
        page_id, frame = self._descend(low_key)
        while True:
            keys = frame.keys
            start = bisect.bisect_left(keys, low_key)
            stop = (
                len(keys)
                if high_key is None
                else max(start, bisect.bisect_left(keys, high_key))
            )
            yield from frame.entries(start, stop)
            if stop < len(keys):
                return
            page_id = self._next_leaf(page_id)
            if page_id == -1:
                return
            frame = self._leaf(page_id)

    def scan_subtree(self, prefix: DeweyId) -> Iterator[Tuple[DeweyId, bytes]]:
        """All entries whose key has ``prefix`` as a (non-strict) prefix."""
        return self.range_scan(prefix, prefix.successor_sibling())

    # -- space accounting -----------------------------------------------------------------

    @property
    def index_bytes(self) -> int:
        """Bytes attributable to this tree (internal nodes; own leaves too)."""
        return self.internal_bytes + self.leaf_bytes


def _check_sorted(entries: List[Tuple[DeweyId, bytes]]) -> None:
    for (a, _), (b, _) in zip(entries, entries[1:]):
        if b < a:
            raise BTreeError("bulk-load input must be sorted by key")
        if a == b:
            raise BTreeError(f"duplicate key {a} in bulk-load input")


def _build_internal_levels(
    disk: SimulatedDisk, index: List[Tuple[DeweyId, int]]
) -> Tuple[int, int, int]:
    """Build internal nodes over (min_key, child_page) pairs.

    Returns (root_page, height, internal_bytes); height counts the leaf
    level, so a tree whose root sits directly on the leaves has height 2 and
    a single-leaf tree has height 1.
    """
    if len(index) == 1:
        return index[0][1], 1, 0

    internal_bytes = 0
    height = 1
    page_size = disk.page_size
    level = index
    while len(level) > 1:
        next_level: List[Tuple[DeweyId, int]] = []
        current: List[Tuple[DeweyId, int]] = []
        current_size = 8
        groups: List[List[Tuple[DeweyId, int]]] = []
        for key, child in level:
            entry_size = key.encoded_size() + 5
            if current and current_size + entry_size > page_size:
                groups.append(current)
                current = []
                current_size = 8
            current.append((key, child))
            current_size += entry_size
        if current:
            groups.append(current)
        for group in groups:
            encoded = _encode_internal(group)
            page_id = disk.allocate(encoded)
            internal_bytes += len(encoded)
            next_level.append((group[0][0], page_id))
        level = next_level
        height += 1
    return level[0][1], height, internal_bytes


class MutableBTree:
    """A read-write B+-tree sharing the on-disk node format of :class:`BTree`.

    The bulk-loaded :class:`BTree` covers XRANK's query path (indexes are
    rebuilt offline, Figure 2); this mutable variant completes the substrate
    for element-granularity maintenance experiments: point ``insert`` with
    node splits, ``delete`` with lazy underflow (nodes may become sparse but
    never violate ordering — the compaction story is a bulk rebuild, same as
    the paper's), plus the same lookup surface.

    Nodes are serialized pages exactly like :class:`BTree`'s, so a mutable
    tree can be snapshotted into a read-only one by reusing its pages.
    """

    def __init__(self, disk: SimulatedDisk):
        self.disk = disk
        self.root_page = disk.allocate(_encode_leaf([], -1, -1))
        self.height = 1
        self.num_entries = 0

    # -- lookups (shared shape with BTree) -----------------------------------------

    def _descend_with_path(self, key: DeweyId):
        """Leaf page id for ``key`` plus the (page, child-slot) path."""
        path = []
        page_id = self.root_page
        for _ in range(self.height - 1):
            children = _decode_internal(self.disk.read(page_id))
            keys = [k for k, _ in children]
            position = bisect.bisect_right(keys, key) - 1
            if position < 0:
                position = 0
            path.append((page_id, position))
            page_id = children[position][1]
        return page_id, path

    def search(self, key: DeweyId) -> Optional[bytes]:
        """Payload stored under ``key``, or None."""
        leaf_page, _ = self._descend_with_path(key)
        _, _, entries = _decode_leaf(self.disk.read(leaf_page))
        for entry_key, payload in entries:
            if entry_key == key:
                return payload
        return None

    def items(self) -> Iterator[Tuple[DeweyId, bytes]]:
        """All entries in key order."""
        page_id = self.root_page
        for _ in range(self.height - 1):
            children = _decode_internal(self.disk.read(page_id))
            page_id = children[0][1]
        while page_id != -1:
            _, next_page, entries = _decode_leaf(self.disk.read(page_id))
            yield from entries
            page_id = next_page

    # -- insertion -------------------------------------------------------------------

    def insert(self, key: DeweyId, payload: bytes) -> None:
        """Insert or overwrite one entry, splitting full nodes as needed."""
        entry_size = key.encoded_size() + len(payload) + 5
        if entry_size + 16 > self.disk.page_size:
            raise BTreeError(f"entry of {entry_size} bytes cannot fit one page")
        leaf_page, path = self._descend_with_path(key)
        prev_page, next_page, entries = _decode_leaf(self.disk.read(leaf_page))
        keys = [k for k, _ in entries]
        position = bisect.bisect_left(keys, key)
        replaced = position < len(entries) and entries[position][0] == key
        if replaced:
            entries[position] = (key, payload)
        else:
            entries.insert(position, (key, payload))
            self.num_entries += 1

        encoded = _encode_leaf(entries, prev_page, next_page)
        if len(encoded) <= self.disk.page_size:
            self.disk.write(leaf_page, encoded)
            return

        # Split the leaf: left half stays on leaf_page (so parents and the
        # previous sibling's next-pointer remain valid).
        middle = len(entries) // 2
        left, right = entries[:middle], entries[middle:]
        right_page = self.disk.allocate(b"")
        self.disk.write(
            right_page, _encode_leaf(right, leaf_page, next_page)
        )
        self.disk.write(leaf_page, _encode_leaf(left, prev_page, right_page))
        if next_page != -1:
            old_prev, old_next, old_entries = _decode_leaf(
                self.disk.read(next_page)
            )
            self.disk.write(
                next_page, _encode_leaf(old_entries, right_page, old_next)
            )
        self._insert_separator(path, right[0][0], right_page)

    def _insert_separator(self, path, separator: DeweyId, child_page: int) -> None:
        """Propagate a split upward, growing a new root if necessary."""
        while path:
            parent_page, slot = path.pop()
            children = _decode_internal(self.disk.read(parent_page))
            children.insert(slot + 1, (separator, child_page))
            encoded = _encode_internal(children)
            if len(encoded) <= self.disk.page_size:
                self.disk.write(parent_page, encoded)
                return
            middle = len(children) // 2
            left, right = children[:middle], children[middle:]
            right_page = self.disk.allocate(_encode_internal(right))
            self.disk.write(parent_page, _encode_internal(left))
            separator, child_page = right[0][0], right_page
        # Split reached the root: grow one level.
        new_root = self.disk.allocate(
            _encode_internal(
                [(self._smallest_key(), self.root_page), (separator, child_page)]
            )
        )
        self.root_page = new_root
        self.height += 1

    def _smallest_key(self) -> DeweyId:
        page_id = self.root_page
        for _ in range(self.height - 1):
            children = _decode_internal(self.disk.read(page_id))
            page_id = children[0][1]
        _, _, entries = _decode_leaf(self.disk.read(page_id))
        if entries:
            return entries[0][0]
        return DeweyId((0,))

    # -- deletion ---------------------------------------------------------------------

    def delete(self, key: DeweyId) -> bool:
        """Remove one entry; returns False when the key is absent.

        Underflow is handled lazily: leaves may become sparse (even empty)
        but stay linked and ordered, so lookups and scans remain correct;
        space is reclaimed by a bulk rebuild, mirroring the index layer's
        merge-compaction strategy.
        """
        leaf_page, _ = self._descend_with_path(key)
        prev_page, next_page, entries = _decode_leaf(self.disk.read(leaf_page))
        keys = [k for k, _ in entries]
        position = bisect.bisect_left(keys, key)
        if position >= len(entries) or entries[position][0] != key:
            return False
        del entries[position]
        self.num_entries -= 1
        self.disk.write(
            leaf_page, _encode_leaf(entries, prev_page, next_page)
        )
        return True

    # -- conversion ----------------------------------------------------------------------

    def ceiling(self, key: DeweyId) -> Optional[Tuple[DeweyId, bytes]]:
        """Smallest entry with entry key >= ``key`` (same as BTree)."""
        leaf_page, _ = self._descend_with_path(key)
        page_id = leaf_page
        while page_id != -1:
            _, next_page, entries = _decode_leaf(self.disk.read(page_id))
            keys = [k for k, _ in entries]
            position = bisect.bisect_left(keys, key)
            if position < len(entries):
                return entries[position]
            page_id = next_page
        return None
