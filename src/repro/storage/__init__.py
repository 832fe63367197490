"""Storage substrate: simulated page-oriented disk, LRU buffer pool, I/O
cost model, inverted-list files, disk-resident B+-trees and hash indexes.

The paper implemented "our own inverted list and index structures" after
finding commercial B+-trees could not express longest-common-prefix probes
or the space optimizations of Sections 4.3.1 and 4.4.1; this package is the
equivalent substrate, instrumented so queries can be measured in simulated
I/O cost independent of the host machine.
"""

from .btree import BTree, MutableBTree
from .disk import BufferPool, SimulatedDisk
from .hashindex import HashIndex
from .iostats import IOStats
from .listfile import ListCursor, ListDirectory, ListFile, frame_record
from .records import RecordReader, RecordWriter, pack_into_pages, unpack_page

__all__ = [
    "BTree",
    "BufferPool",
    "MutableBTree",
    "HashIndex",
    "IOStats",
    "ListCursor",
    "ListDirectory",
    "ListFile",
    "RecordReader",
    "RecordWriter",
    "SimulatedDisk",
    "frame_record",
    "pack_into_pages",
    "unpack_page",
]
