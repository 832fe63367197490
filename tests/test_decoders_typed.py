"""Every B+-tree and list-page decoder fails on bad bytes with a typed error.

Each decoder is fed every truncation of a real page and 2000 seeded random
byte strings (also behind the page kind's flag byte, so they reach past
the header).  It may return, or raise a :class:`repro.errors.XRankError`;
an ``IndexError``, ``ValueError`` or anything else untyped fails.
"""

from __future__ import annotations

import random

import pytest

from repro.config import StorageParams
from repro.errors import XRankError
from repro.index.hdil import decode_leaf_entry, decode_list_page, list_page_frame
from repro.index.postings import Posting
from repro.storage.btree import (
    BTree,
    _decode_internal,
    _decode_leaf,
    _internal_frame,
    _leaf_frame,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.listfile import ListFile, page_records
from repro.xmlmodel.dewey import DeweyId, decode_components


def _real_pages():
    """(owned leaf, internal node, list page) of small built structures,
    and the RDIL tree's leaf pages with the entries they were built from."""
    rng = random.Random(3)
    keys = sorted({
        DeweyId((rng.randrange(300), *(rng.randrange(200) for _ in range(rng.randint(0, 4)))))
        for _ in range(400)
    })
    disk = SimulatedDisk(StorageParams(page_size=256))
    entries = [(key, Posting(key, 0.5, (1, 300)).encode_payload()) for key in keys]
    tree = BTree.bulk_load(disk, entries)
    assert tree.height >= 2
    leaves = [disk.pages[page_id] for page_id in tree.leaf_pages]
    list_file = ListFile.write(
        disk, [Posting(key, 0.25, (2, 9)).encode() for key in keys]
    )
    pages = leaves[1], disk.pages[tree.root_page], disk.pages[list_file.page_ids[1]]
    return pages, leaves, entries


(LEAF, INTERNAL, LIST_PAGE), LEAVES, ENTRIES = _real_pages()

#: (name, decoder over one bytes argument, a real input, flag prefix).
DECODERS = [
    ("_decode_leaf", _decode_leaf, LEAF, b"\x00"),
    ("_leaf_frame", lambda page: _leaf_frame(page).entries(), LEAF, b"\x00"),
    ("_decode_internal", _decode_internal, INTERNAL, b"\x01"),
    ("_internal_frame", _internal_frame, INTERNAL, b"\x01"),
    ("list_page_frame", lambda page: list_page_frame(page).entries(), LIST_PAGE, b""),
    ("decode_list_page", decode_list_page, LIST_PAGE, b""),
    ("page_records", page_records, LIST_PAGE, b""),
    ("decode_leaf_entry", lambda record: decode_leaf_entry(DeweyId((0,)), record),
     page_records(LIST_PAGE)[0], b""),
    ("decode_components", decode_components, page_records(LIST_PAGE)[0], b""),
]


def _typed(decode, data: bytes) -> None:
    try:
        decode(data)
    except XRankError:
        pass


@pytest.mark.parametrize(
    "name, decode, real, flag", DECODERS, ids=[d[0] for d in DECODERS]
)
def test_decoder_raises_only_typed_errors(name, decode, real, flag):
    decode(real)  # the real input decodes
    for cut in range(len(real)):
        _typed(decode, real[:cut])
    rng = random.Random(1)
    for _ in range(2000):
        body = rng.randbytes(rng.randint(0, 40))
        _typed(decode, body)
        _typed(decode, flag + body)


def test_frames_decode_real_pages_as_the_entry_decoders_do():
    # The leaves hold exactly what they were built from, in order.
    assert [e for page in LEAVES for e in _leaf_frame(page).entries()] == ENTRIES
    assert _leaf_frame(LEAF).entries() == _decode_leaf(LEAF)[2]
    keys, children = _internal_frame(INTERNAL)
    assert [(DeweyId(k), c) for k, c in zip(keys, children)] == _decode_internal(INTERNAL)
    records = page_records(LIST_PAGE)
    assert list_page_frame(LIST_PAGE).entries() == [
        (DeweyId.decode(record)[0], record) for record in records
    ]
