"""Dewey IDs: hierarchical element identifiers (paper Section 4.2).

A Dewey ID is the path vector of sibling positions from the root of a
document down to an element.  The first component is the *document id*, so a
single ID is globally unique across a collection.  Two properties make Dewey
IDs the backbone of XRANK's indexes:

* the ID of an ancestor is a strict prefix of the ID of every descendant, so
  ancestor/descendant tests and deepest-common-ancestor computations reduce
  to prefix operations; and
* components are *relative* sibling positions, so they are small integers
  that compress well with a variable-length byte encoding.

The binary encoding used for space accounting is a standard unsigned varint
(7 bits per byte, high bit = continuation) per component, length-prefixed by
the component count.  This mirrors the paper's observation that "a small
number of bits are usually sufficient to encode each component".
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, Optional, Tuple

from ..errors import DeweyError


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as an unsigned LEB128 varint."""
    if value < 0:
        raise DeweyError(f"varint components must be non-negative, got {value}")
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint from ``data`` starting at ``offset``.

    Returns ``(value, next_offset)``.
    """
    if offset >= len(data):
        raise DeweyError("truncated varint")
    value = data[offset]
    if value > 0x7F:
        return varint_tail(data, offset + 1, value)
    return value, offset + 1


def varint_tail(data: bytes, pos: int, first: int) -> Tuple[int, int]:
    """Finish a multi-byte varint whose first byte ``first`` (> 0x7F) was
    read just before ``pos``; returns ``(value, next_offset)``.

    The record decoders read one-byte varints inline and call this only
    for the rare longer ones.  At most ten bytes make a varint.
    """
    value = first & 0x7F
    shift = 7
    end = len(data)
    while True:
        if pos >= end:
            raise DeweyError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise DeweyError("varint too long")


def _component(value: object) -> int:
    """One caller-supplied Dewey component as a non-negative ``int``.

    ``operator.index`` takes integer-likes such as numpy integers and
    rejects floats and strings instead of truncating or parsing them;
    bools are ints to Python but never a sibling position.
    """
    if isinstance(value, bool):
        raise DeweyError(f"Dewey components must be integers, got {value!r}")
    try:
        component = index(value)
    except TypeError:
        raise DeweyError(
            f"Dewey components must be integers, got {value!r}"
        ) from None
    if component < 0:
        raise DeweyError(f"Dewey components must be >= 0, got {component}")
    return component


class DeweyId:
    """An immutable, totally ordered Dewey identifier.

    Components are compared lexicographically, which is exactly document
    order for elements of one document, with the document id (component 0)
    ordering across documents.

    ``DeweyId`` instances hash and compare by value and support the prefix
    algebra the query algorithms need: :meth:`is_ancestor_of`,
    :meth:`common_prefix`, :meth:`parent` and :meth:`child`.
    """

    __slots__ = ("_components", "_hash")

    def __init__(self, components: Iterable[int]):
        comps = tuple(components)
        if not comps:
            raise DeweyError("a Dewey ID needs at least one component")
        for c in comps:
            if type(c) is not int or c < 0:
                comps = tuple(map(_component, comps))
                break
        self._components = comps
        self._hash = hash(comps)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def root(cls, doc_id: int) -> "DeweyId":
        """The ID of the root element of document ``doc_id``."""
        return cls((doc_id,))

    @classmethod
    def parse(cls, text: str) -> "DeweyId":
        """Parse the dotted notation used throughout the paper, e.g. ``"5.0.3.0.1"``."""
        try:
            return cls(int(part) for part in text.split("."))
        except ValueError as exc:
            raise DeweyError(f"cannot parse Dewey ID {text!r}") from exc

    # -- basic accessors -----------------------------------------------------

    @property
    def components(self) -> Tuple[int, ...]:
        return self._components

    @property
    def doc_id(self) -> int:
        """The document id (first component)."""
        return self._components[0]

    @property
    def depth(self) -> int:
        """Number of components below the document id (root element = 0)."""
        return len(self._components) - 1

    def __len__(self) -> int:
        return len(self._components)

    def __getitem__(self, index: int) -> int:
        return self._components[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._components)

    # -- ordering / equality ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DeweyId) and self._components == other._components

    def __lt__(self, other: "DeweyId") -> bool:
        return self._components < other._components

    def __le__(self, other: "DeweyId") -> bool:
        return self._components <= other._components

    def __gt__(self, other: "DeweyId") -> bool:
        return self._components > other._components

    def __ge__(self, other: "DeweyId") -> bool:
        return self._components >= other._components

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"DeweyId({str(self)!r})"

    def __str__(self) -> str:
        return ".".join(str(c) for c in self._components)

    # -- prefix algebra --------------------------------------------------------

    def is_prefix_of(self, other: "DeweyId") -> bool:
        """True when ``self`` equals ``other`` or is an ancestor of it."""
        n = len(self._components)
        return (
            n <= len(other._components)
            and other._components[:n] == self._components
        )

    def is_ancestor_of(self, other: "DeweyId") -> bool:
        """Strict ancestor test (``self != other``)."""
        return len(self) < len(other) and self.is_prefix_of(other)

    def is_descendant_of(self, other: "DeweyId") -> bool:
        """Strict descendant test."""
        return other.is_ancestor_of(self)

    def common_prefix(self, other: "DeweyId") -> Optional["DeweyId"]:
        """The deepest common ancestor of the two IDs.

        Returns ``None`` when the IDs belong to different documents, i.e.
        when not even the document-id component matches.
        """
        n = self.common_prefix_length(other)
        if n == 0:
            return None
        return _trusted(self._components[:n])

    def common_prefix_length(self, other: "DeweyId") -> int:
        """Length (in components) of the longest common prefix."""
        n = 0
        for a, b in zip(self._components, other._components):
            if a != b:
                break
            n += 1
        return n

    def prefix(self, length: int) -> "DeweyId":
        """The ancestor ID made of the first ``length`` components."""
        if not 1 <= length <= len(self._components):
            raise DeweyError(
                f"prefix length {length} out of range for {self}"
            )
        return _trusted(self._components[:length])

    def parent(self) -> Optional["DeweyId"]:
        """The parent element's ID, or ``None`` at the document root."""
        if len(self._components) == 1:
            return None
        return _trusted(self._components[:-1])

    def child(self, position: int) -> "DeweyId":
        """The ID of the child at sibling ``position``."""
        if position < 0:
            raise DeweyError("child position must be >= 0")
        return DeweyId(self._components + (position,))

    def ancestors(self) -> Iterator["DeweyId"]:
        """Yield every strict ancestor, nearest first (parent, ..., doc root)."""
        for length in range(len(self._components) - 1, 0, -1):
            yield _trusted(self._components[:length])

    def successor_sibling(self) -> "DeweyId":
        """The smallest ID strictly greater than every descendant of ``self``.

        Used as an exclusive upper bound for B+-tree range scans over the
        subtree rooted at ``self``.
        """
        return _trusted(self._components[:-1] + (self._components[-1] + 1,))

    # -- binary codec ----------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize as ``varint(count) || varint(component)*``."""
        out = bytearray()
        for value in (len(self._components),) + self._components:
            while value > 0x7F:
                out.append(value & 0x7F | 0x80)
                value >>= 7
            out.append(value)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> Tuple["DeweyId", int]:
        """Deserialize a Dewey ID; returns ``(id, next_offset)``.

        Truncated or malformed bytes raise :class:`DeweyError`; bytes after
        the ID are left for the caller.
        """
        components, pos = decode_components(data, offset)
        return _trusted(components), pos

    def encoded_size(self) -> int:
        """Size in bytes of :meth:`encode`'s output (for space accounting)."""
        return len(self.encode())


def decode_components(data: bytes, offset: int = 0) -> Tuple[Tuple[int, ...], int]:
    """:meth:`DeweyId.decode` without the object: ``(components, next_offset)``.

    What a B+-tree frame keeps of each key.  Truncated or malformed bytes
    raise :class:`DeweyError`.
    """
    try:
        count = data[offset]
        pos = offset + 1
        if count > 0x7F:
            count, pos = varint_tail(data, pos, count)
        if count == 0:
            raise DeweyError("encoded Dewey ID has zero components")
        comps = []
        for _ in range(count):
            value = data[pos]
            pos += 1
            if value > 0x7F:
                value, pos = varint_tail(data, pos, value)
            comps.append(value)
    except IndexError:
        raise DeweyError("truncated varint") from None
    return tuple(comps), pos


_new = object.__new__


def _trusted(components: Tuple[int, ...]) -> DeweyId:
    """A :class:`DeweyId` over ``components`` without ``__init__``'s checks.

    Only for tuples that are already non-empty and made of non-negative
    ``int`` s: a varint decoder's output, or a slice of a valid ID's
    components.  Caller-supplied components go through ``DeweyId(...)``.
    """
    dewey = _new(DeweyId)
    dewey._components = components
    dewey._hash = hash(components)
    return dewey


def deepest_common_ancestor(ids: Iterable[DeweyId]) -> Optional[DeweyId]:
    """Deepest common ancestor of a collection of Dewey IDs.

    Returns ``None`` for an empty collection or when the IDs span multiple
    documents.
    """
    iterator = iter(ids)
    try:
        first = next(iterator)
    except StopIteration:
        return None
    prefix = first.components
    for other in iterator:
        n = 0
        for a, b in zip(prefix, other.components):
            if a != b:
                break
            n += 1
        if n == 0:
            return None
        prefix = prefix[:n]
    return _trusted(prefix)
