"""The longest-common-prefix probe descends once.

``BTree.longest_common_prefix`` bisects one leaf and takes the ceiling at
the found position and the predecessor just before it, crossing to a
neighbouring leaf only at a leaf edge.  These tests hold it to the answer
of two separate probes, ``max(lcp(ceiling), lcp(predecessor))``, and to
their page reads, on seeded trees of height >= 2 that own their leaves
(RDIL) or sit on list pages (HDIL).  The reads are equal only when the
pool holds a whole descent and a neighbouring leaf; a smaller pool reads
fewer pages with one descent.
"""

from __future__ import annotations

import bisect
import random

import pytest

from repro.config import StorageParams
from repro.index.hdil import list_page_frame
from repro.storage.btree import BTree
from repro.storage.disk import SimulatedDisk
from repro.storage.listfile import ListFile
from repro.xmlmodel.dewey import DeweyId


def random_keys(rng: random.Random, count: int):
    keys = set()
    while len(keys) < count:
        length = rng.randint(1, 5)
        keys.add(tuple(rng.randrange(1, 160) for _ in range(length)))
    return sorted(DeweyId(key) for key in keys)


def owned_tree(seed: int, pool_pages: int = 64):
    rng = random.Random(seed)
    keys = random_keys(rng, 600)
    disk = SimulatedDisk(StorageParams(page_size=256, buffer_pool_pages=pool_pages))
    entries = [(key, rng.randbytes(rng.randrange(0, 6))) for key in keys]
    return BTree.bulk_load(disk, entries), keys


def external_tree(seed: int, pool_pages: int = 64):
    rng = random.Random(seed)
    keys = random_keys(rng, 600)
    disk = SimulatedDisk(StorageParams(page_size=256, buffer_pool_pages=pool_pages))
    records = [key.encode() + rng.randbytes(rng.randrange(0, 6)) for key in keys]
    list_file = ListFile.write(disk, records)
    page_index = [
        (keys[first], page_id)
        for page_id, first in zip(list_file.page_ids, list_file.page_boundaries)
    ]
    return BTree.build_over_pages(disk, page_index, list_page_frame, len(keys)), keys


TREES = {"owned": owned_tree, "external": external_tree}


def probe_keys(tree: BTree, keys, rng: random.Random):
    """Present and absent keys, keys outside the tree, and every leaf edge."""
    probes = list(rng.sample(keys, 60))
    probes += [DeweyId(tuple(rng.randrange(0, 170) for _ in range(rng.randint(1, 6))))
               for _ in range(60)]
    probes += [DeweyId((0,)), DeweyId((0, 0)), keys[0], keys[-1],
               keys[-1].child(0), keys[-1].successor_sibling(), DeweyId((500,))]
    for page_id in tree.leaf_pages:
        leaf = tree._leaf_entries(page_id)
        first, last = leaf[0][0], leaf[-1][0]
        probes += [first, last, last.child(0), last.successor_sibling(),
                   first.child(0)]
        if len(first) > 1:
            probes.append(first.parent())
    return probes


def two_probe_lcp(tree: BTree, key: DeweyId) -> int:
    """The probe as two descents: one per candidate."""
    best = 0
    for entry in (tree.ceiling(key), tree.predecessor(key)):
        if entry is not None:
            best = max(best, key.common_prefix_length(entry[0]))
    return best


def cold_reads(tree: BTree, probe) -> tuple:
    tree.disk.drop_cache()
    tree.disk.reset_stats()
    probe()
    stats = tree.disk.stats
    return stats.page_reads, stats.sequential_reads, stats.random_reads


@pytest.mark.parametrize("kind", sorted(TREES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_descent_gives_the_two_probe_answer(kind, seed):
    tree, keys = TREES[kind](seed)
    assert tree.height >= 2 and tree.leaf_count > 2
    for key in probe_keys(tree, keys, random.Random(seed)):
        expected = two_probe_lcp(tree, key)
        assert tree.longest_common_prefix(key) == expected, key
        assert expected == max(key.common_prefix_length(k) for k in keys), key
        # Both candidates, against the sorted keys: a predecessor found
        # across a leaf edge (the key is a leaf's first) included.
        position = bisect.bisect_left(keys, key)
        want = (
            keys[position - 1] if position > 0 else None,
            keys[position] if position < len(keys) else None,
        )
        pair = tree.ceiling(key, with_predecessor=True)
        assert tuple(None if e is None else e[0] for e in pair) == want, key
        assert pair == (tree.predecessor(key), tree.ceiling(key)), key


@pytest.mark.parametrize("pool_pages", [1, 4])
@pytest.mark.parametrize("kind", sorted(TREES))
def test_one_descent_reads_the_pages_two_probes_read(kind, pool_pages):
    """Four pool pages hold a descent and a neighbouring leaf: the same
    misses, in the same order, because the second descent only hit.  With
    one pool page two probes miss on every level twice, so one descent
    reads ``height`` pages fewer."""
    tree, keys = TREES[kind](7, pool_pages)
    assert tree.height + 1 <= 4
    fewer = {4: 0, 1: tree.height}[pool_pages]
    for key in probe_keys(tree, keys, random.Random(7)):
        one = cold_reads(tree, lambda: tree.longest_common_prefix(key))
        two = cold_reads(tree, lambda: two_probe_lcp(tree, key))
        # One descent: a page per level, one more at a leaf edge.
        assert tree.height <= one[0] <= tree.height + 1, key
        assert one[0] == two[0] - fewer, key
        if fewer:
            assert one[1] <= two[1] and one[2] <= two[2], key
        else:
            assert one == two, key
