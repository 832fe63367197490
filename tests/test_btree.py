"""Unit and property tests for the disk-resident B+-tree."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import StorageParams
from repro.errors import BTreeError
from repro.storage.btree import BTree
from repro.storage.disk import SimulatedDisk
from repro.xmlmodel.dewey import DeweyId


def make_disk(page_size=256, pool=16):
    return SimulatedDisk(StorageParams(page_size=page_size, buffer_pool_pages=pool))


def random_keys(rng, count, fanout=12, depth=4):
    keys = set()
    while len(keys) < count:
        length = rng.randint(1, depth)
        keys.add(tuple(rng.randrange(fanout) for _ in range(length)))
    return sorted(DeweyId(k) for k in keys)


def build_tree(keys, disk=None):
    disk = disk or make_disk()
    entries = [(k, str(k).encode()) for k in keys]
    return BTree.bulk_load(disk, entries), entries


class TestBulkLoad:
    def test_empty_tree(self):
        tree, _ = build_tree([])
        assert tree.num_entries == 0
        assert tree.ceiling(DeweyId((1,))) is None
        assert tree.predecessor(DeweyId((1,))) is None
        assert tree.longest_common_prefix(DeweyId((1, 2))) == 0

    def test_single_entry(self):
        key = DeweyId.parse("3.1.4")
        tree, _ = build_tree([key])
        assert tree.height == 1
        assert tree.ceiling(DeweyId((0,)))[0] == key
        assert tree.predecessor(DeweyId((9,)))[0] == key

    def test_multi_level(self):
        rng = random.Random(0)
        keys = random_keys(rng, 800)
        tree, _ = build_tree(keys)
        assert tree.height >= 2
        assert tree.num_entries == 800

    def test_unsorted_rejected(self):
        disk = make_disk()
        entries = [(DeweyId((2,)), b"x"), (DeweyId((1,)), b"y")]
        with pytest.raises(BTreeError):
            BTree.bulk_load(disk, entries)

    def test_duplicates_rejected(self):
        disk = make_disk()
        entries = [(DeweyId((1,)), b"x"), (DeweyId((1,)), b"y")]
        with pytest.raises(BTreeError):
            BTree.bulk_load(disk, entries)

    def test_oversized_entry_rejected(self):
        disk = make_disk(page_size=64)
        with pytest.raises(BTreeError):
            BTree.bulk_load(disk, [(DeweyId((1,)), b"x" * 100)])


class TestQueries:
    @pytest.fixture(scope="class")
    def loaded(self):
        rng = random.Random(7)
        keys = random_keys(rng, 1500)
        tree, entries = build_tree(keys)
        return tree, keys

    def test_ceiling_matches_bruteforce(self, loaded):
        tree, keys = loaded
        rng = random.Random(1)
        for _ in range(200):
            probe = DeweyId(tuple(rng.randrange(14) for _ in range(rng.randint(1, 4))))
            expected = min((k for k in keys if k >= probe), default=None)
            got = tree.ceiling(probe)
            assert (got[0] if got else None) == expected

    def test_strictly_greater(self, loaded):
        tree, keys = loaded
        for key in keys[:50]:
            expected = min((k for k in keys if k > key), default=None)
            got = tree.strictly_greater(key)
            assert (got[0] if got else None) == expected

    def test_predecessor_matches_bruteforce(self, loaded):
        tree, keys = loaded
        rng = random.Random(2)
        for _ in range(200):
            probe = DeweyId(tuple(rng.randrange(14) for _ in range(rng.randint(1, 4))))
            expected = max((k for k in keys if k < probe), default=None)
            got = tree.predecessor(probe)
            assert (got[0] if got else None) == expected

    def test_longest_common_prefix_matches_bruteforce(self, loaded):
        tree, keys = loaded
        rng = random.Random(3)
        for _ in range(200):
            probe = DeweyId(tuple(rng.randrange(14) for _ in range(rng.randint(1, 5))))
            expected = max(probe.common_prefix_length(k) for k in keys)
            assert tree.longest_common_prefix(probe) == expected

    def test_range_scan(self, loaded):
        tree, keys = loaded
        low, high = keys[100], keys[200]
        got = [k for k, _ in tree.range_scan(low, high)]
        assert got == [k for k in keys if low <= k < high]

    def test_range_scan_open_ended(self, loaded):
        tree, keys = loaded
        low = keys[len(keys) - 5]
        got = [k for k, _ in tree.range_scan(low)]
        assert got == keys[-5:]

    def test_scan_subtree(self, loaded):
        tree, keys = loaded
        prefix = keys[50].prefix(1)
        got = [k for k, _ in tree.scan_subtree(prefix)]
        assert got == [k for k in keys if prefix.is_prefix_of(k)]

    def test_payloads_preserved(self, loaded):
        tree, keys = loaded
        key = keys[123]
        got = tree.ceiling(key)
        assert got == (key, str(key).encode())

    def test_probes_charge_random_io(self, loaded):
        tree, _ = loaded
        tree.disk.reset_stats()
        tree.disk.drop_cache()
        tree.ceiling(DeweyId((5, 5)))
        assert tree.disk.stats.random_reads >= 1


@settings(max_examples=30, deadline=None)
@given(st.sets(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
    min_size=1, max_size=120,
))
def test_property_btree_matches_sorted_list(key_tuples):
    keys = sorted(DeweyId(k) for k in key_tuples)
    tree, _ = build_tree(keys, make_disk(page_size=128))
    probe = keys[len(keys) // 2]
    ceiling = tree.ceiling(probe)
    assert ceiling is not None and ceiling[0] == probe
    lcp = tree.longest_common_prefix(probe)
    assert lcp == len(probe)
    assert [k for k, _ in tree.range_scan(keys[0])] == keys
