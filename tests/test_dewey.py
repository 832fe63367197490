"""Unit tests for Dewey IDs: ordering, prefix algebra, binary codec."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DeweyError
from repro.xmlmodel.dewey import (
    DeweyId,
    decode_varint,
    deepest_common_ancestor,
    encode_varint,
)

components = st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=8)


class TestConstruction:
    def test_parse_and_str_roundtrip(self):
        dewey = DeweyId.parse("5.0.3.0.1")
        assert str(dewey) == "5.0.3.0.1"
        assert dewey.components == (5, 0, 3, 0, 1)

    def test_root(self):
        root = DeweyId.root(7)
        assert root.components == (7,)
        assert root.doc_id == 7
        assert root.depth == 0

    def test_empty_rejected(self):
        with pytest.raises(DeweyError):
            DeweyId(())

    def test_negative_component_rejected(self):
        with pytest.raises(DeweyError):
            DeweyId((1, -2))

    @pytest.mark.parametrize(
        "components", [(1.7, 2), (2.0,), ("3", 4), (True, 2), (0, False), (None,)]
    )
    def test_non_integer_component_rejected(self, components):
        # Floats used to truncate (1.7.2 read as 1.2), strings to parse,
        # and bools to pass as 1 and 0.
        with pytest.raises(DeweyError):
            DeweyId(components)

    def test_integer_likes_accepted_as_ints(self):
        numpy = pytest.importorskip("numpy")
        dewey = DeweyId([numpy.int64(3), numpy.uint8(4), 5])
        assert dewey == DeweyId((3, 4, 5))
        assert all(type(c) is int for c in dewey.components)
        assert hash(dewey) == hash(DeweyId((3, 4, 5)))

    def test_derived_ids_equal_constructed_ones(self):
        dewey = DeweyId((4, 0, 2, 7))
        assert dewey.prefix(2) == DeweyId((4, 0))
        assert hash(dewey.parent()) == hash(DeweyId((4, 0, 2)))
        assert dewey.common_prefix(DeweyId((4, 0, 3))) == DeweyId((4, 0))
        assert list(dewey.ancestors()) == [
            DeweyId((4, 0, 2)), DeweyId((4, 0)), DeweyId((4,))
        ]
        assert dewey.successor_sibling() == DeweyId((4, 0, 2, 8))
        with pytest.raises(DeweyError):
            dewey.child(-1)
        with pytest.raises(DeweyError):
            dewey.child(1.5)

    def test_parse_garbage_rejected(self):
        with pytest.raises(DeweyError):
            DeweyId.parse("1.x.2")

    def test_len_getitem_iter(self):
        dewey = DeweyId((4, 1, 2))
        assert len(dewey) == 3
        assert dewey[1] == 1
        assert list(dewey) == [4, 1, 2]


class TestOrdering:
    def test_lexicographic_order_is_document_order(self):
        assert DeweyId.parse("5.0.3.0.0") < DeweyId.parse("5.0.3.0.1")
        assert DeweyId.parse("5.0.3") < DeweyId.parse("5.0.3.0.1")
        assert DeweyId.parse("6.0") > DeweyId.parse("5.9.9.9")

    def test_equality_and_hash(self):
        a = DeweyId((1, 2, 3))
        b = DeweyId.parse("1.2.3")
        assert a == b
        assert hash(a) == hash(b)
        assert a != DeweyId((1, 2))
        assert a != "1.2.3"

    @given(components, components)
    def test_order_matches_tuple_order(self, left, right):
        assert (DeweyId(left) < DeweyId(right)) == (tuple(left) < tuple(right))
        assert (DeweyId(left) <= DeweyId(right)) == (tuple(left) <= tuple(right))


class TestPrefixAlgebra:
    def test_ancestor_prefix(self):
        parent = DeweyId.parse("5.0.3")
        child = DeweyId.parse("5.0.3.0.1")
        assert parent.is_prefix_of(child)
        assert parent.is_ancestor_of(child)
        assert child.is_descendant_of(parent)
        assert not child.is_ancestor_of(parent)
        assert not parent.is_ancestor_of(parent)
        assert parent.is_prefix_of(parent)

    def test_common_prefix(self):
        a = DeweyId.parse("5.0.3.0.0")
        b = DeweyId.parse("5.0.3.8.1")
        assert a.common_prefix(b) == DeweyId.parse("5.0.3")
        assert a.common_prefix_length(b) == 3

    def test_common_prefix_different_documents(self):
        assert DeweyId.parse("5.1").common_prefix(DeweyId.parse("6.1")) is None

    def test_prefix_bounds(self):
        dewey = DeweyId.parse("5.0.3")
        assert dewey.prefix(1) == DeweyId((5,))
        assert dewey.prefix(3) == dewey
        with pytest.raises(DeweyError):
            dewey.prefix(0)
        with pytest.raises(DeweyError):
            dewey.prefix(4)

    def test_parent_and_child(self):
        dewey = DeweyId.parse("5.0.3")
        assert dewey.parent() == DeweyId.parse("5.0")
        assert DeweyId((5,)).parent() is None
        assert dewey.child(4) == DeweyId.parse("5.0.3.4")
        with pytest.raises(DeweyError):
            dewey.child(-1)

    def test_ancestors_nearest_first(self):
        dewey = DeweyId.parse("5.0.3.1")
        assert [str(a) for a in dewey.ancestors()] == ["5.0.3", "5.0", "5"]

    def test_successor_sibling_bounds_subtree(self):
        dewey = DeweyId.parse("5.0.3")
        successor = dewey.successor_sibling()
        assert successor == DeweyId.parse("5.0.4")
        assert dewey < DeweyId.parse("5.0.3.999") < successor

    @given(components, components)
    def test_common_prefix_is_commutative(self, left, right):
        a, b = DeweyId(left), DeweyId(right)
        assert a.common_prefix_length(b) == b.common_prefix_length(a)

    @given(components, components)
    def test_common_prefix_is_ancestor_or_self_of_both(self, left, right):
        a, b = DeweyId(left), DeweyId(right)
        prefix = a.common_prefix(b)
        if prefix is not None:
            assert prefix.is_prefix_of(a)
            assert prefix.is_prefix_of(b)


class TestCodec:
    def test_varint_small_values_one_byte(self):
        for value in (0, 1, 127):
            assert len(encode_varint(value)) == 1

    def test_varint_roundtrip_explicit(self):
        for value in (0, 1, 127, 128, 300, 2**20, 2**40):
            data = encode_varint(value)
            decoded, offset = decode_varint(data)
            assert decoded == value
            assert offset == len(data)

    def test_varint_negative_rejected(self):
        with pytest.raises(DeweyError):
            encode_varint(-1)

    def test_varint_truncated(self):
        with pytest.raises(DeweyError):
            decode_varint(b"\x80")

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_varint_roundtrip(self, value):
        decoded, _ = decode_varint(encode_varint(value))
        assert decoded == value

    @given(components)
    def test_dewey_roundtrip(self, comps):
        dewey = DeweyId(comps)
        decoded, offset = DeweyId.decode(dewey.encode())
        assert decoded == dewey
        assert offset == len(dewey.encode())
        assert dewey.encoded_size() == len(dewey.encode())

    def test_decode_zero_components_rejected(self):
        with pytest.raises(DeweyError):
            DeweyId.decode(encode_varint(0))

    def test_decode_with_offset(self):
        buffer = b"junk" + DeweyId.parse("1.2").encode()
        decoded, offset = DeweyId.decode(buffer, 4)
        assert decoded == DeweyId.parse("1.2")
        assert offset == len(buffer)


class TestDeepestCommonAncestor:
    def test_basic(self):
        ids = [DeweyId.parse(s) for s in ("5.0.3.0", "5.0.3.8", "5.0.4")]
        assert deepest_common_ancestor(ids) == DeweyId.parse("5.0")

    def test_single(self):
        assert deepest_common_ancestor([DeweyId.parse("5.1")]) == DeweyId.parse("5.1")

    def test_empty(self):
        assert deepest_common_ancestor([]) is None

    def test_cross_document(self):
        ids = [DeweyId.parse("5.1"), DeweyId.parse("6.1")]
        assert deepest_common_ancestor(ids) is None
