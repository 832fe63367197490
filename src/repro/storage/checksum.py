"""CRC32C (Castagnoli) page checksums for the simulated disk.

Real storage engines checksum every page so that torn writes and bit rot
are *detected* at read time instead of silently flowing into query
results; XRANK's inverted lists, B+-trees and hash buckets all live on
:class:`~repro.storage.disk.SimulatedDisk` pages, so one checksum layer
covers every persistent structure.  The Castagnoli polynomial (0x1EDC6F41,
reflected 0x82F63B78) is the variant used by iSCSI, ext4 and most modern
storage systems; it detects all single-bit flips and all burst errors
shorter than the checksum, which covers the fault model injected by
:mod:`repro.faults` (bit flips, truncated/torn pages).

Short inputs (pages, run-file blocks) go through a pure-Python loop over
a precomputed 256-entry table: deterministic everywhere, and fast enough
because checksums are only verified on buffer-pool *misses*.  Long inputs
(whole snapshot payloads, megabytes) are split into :data:`_LANES` equal
chunks whose CRCs numpy computes side by side, one byte column per step;
the chunk CRCs are then chained, each one after the previous register
was advanced over the chunk's length of zero bytes (the CRC register is
linear, so that advance is four table lookups).  Both paths give the same
bits, so old snapshots and run files verify unchanged.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

_POLY = 0x82F63B78  # CRC-32C (Castagnoli), reflected form

#: Inputs at least this long take the vectorized path.
_VECTOR_MIN = 1 << 16

#: Chunks checksummed side by side on the vectorized path.
_LANES = 2048

Buffer = Union[bytes, bytearray, memoryview]


def _make_table() -> tuple:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_TABLE = _make_table()
_NP_TABLE = np.array(_TABLE, dtype=np.uint32)


def _update(register: int, data: Buffer) -> int:
    """The CRC register after ``data``, one byte at a time."""
    table = _TABLE
    for byte in data:
        register = table[(register ^ byte) & 0xFF] ^ (register >> 8)
    return register


def _zero_shift(length: int) -> List[List[int]]:
    """Four 256-entry tables: the register advanced over ``length`` zero
    bytes is the XOR of ``tables[k][byte k of the register]``."""
    registers = (
        np.arange(256, dtype=np.uint32)[None, :]
        << (np.arange(4, dtype=np.uint32)[:, None] * 8)
    ).ravel()
    for _ in range(length):
        registers = _NP_TABLE[registers & 0xFF] ^ (registers >> 8)
    return registers.reshape(4, 256).tolist()


def _update_vectorized(register: int, data: Buffer) -> int:
    """:func:`_update` over long ``data``, :data:`_LANES` chunks at once."""
    length = len(data) // _LANES
    body = _LANES * length
    # A strided view, not a copy: lane k reads chunk k's byte i at step i.
    chunks = np.frombuffer(data, dtype=np.uint8, count=body).reshape(_LANES, length)
    lanes = np.zeros(_LANES, dtype=np.uint32)
    for column in chunks.T:
        lanes = _NP_TABLE[(lanes ^ column) & 0xFF] ^ (lanes >> 8)
    z0, z1, z2, z3 = _zero_shift(length)
    for lane in lanes.tolist():
        register = (
            z0[register & 0xFF]
            ^ z1[(register >> 8) & 0xFF]
            ^ z2[(register >> 16) & 0xFF]
            ^ z3[register >> 24]
            ^ lane
        )
    return _update(register, memoryview(data)[body:])


def crc32c(data: Buffer, crc: int = 0) -> int:
    """The CRC32C of ``data`` (optionally continuing from ``crc``).

    ``data`` is any bytes-like object of single bytes: ``bytes``,
    ``bytearray`` or a ``memoryview``.
    """
    register = crc ^ 0xFFFFFFFF
    if len(data) >= _VECTOR_MIN:
        register = _update_vectorized(register, data)
    else:
        register = _update(register, data)
    return register ^ 0xFFFFFFFF


def checksum_frame(data: bytes) -> bytes:
    """``data``'s CRC32C as 4 little-endian bytes (run-file block trailer)."""
    return crc32c(data).to_bytes(4, "little")
