"""Tests for the symbolic address space and corruption decoding."""

import pytest

from repro.nt.errors import AccessViolation
from repro.nt.memory import (
    AddressSpace,
    ArgKind,
    Buffer,
    CString,
    OutCell,
    WordArray,
    deref,
    opt_deref,
    opt_string_at,
    string_at,
)


@pytest.fixture
def space():
    return AddressSpace()


class TestIntern:
    def test_intern_returns_stable_address(self, space):
        buf = Buffer(b"abc")
        assert space.intern(buf) == space.intern(buf)

    def test_distinct_objects_get_distinct_addresses(self, space):
        assert space.intern(Buffer(b"a")) != space.intern(Buffer(b"b"))

    def test_resolve_roundtrip(self, space):
        buf = Buffer(b"abc")
        assert space.resolve(space.intern(buf)) is buf

    def test_resolve_unknown_address_is_none(self, space):
        assert space.resolve(0xDEADBEEF) is None

    def test_free_makes_address_wild(self, space):
        buf = Buffer(b"abc")
        address = space.intern(buf)
        assert space.free(address)
        assert space.resolve(address) is None
        assert not space.free(address)

    def test_addresses_never_reused(self, space):
        first = space.intern(Buffer(b"a"))
        space.free(first)
        second = space.intern(Buffer(b"b"))
        assert first != second


class TestEncode:
    def test_none_encodes_to_null(self, space):
        assert space.encode(None) == 0

    def test_bool_encodes_to_zero_one(self, space):
        assert space.encode(True) == 1
        assert space.encode(False) == 0

    def test_int_is_masked_to_32_bits(self, space):
        assert space.encode(0x1_0000_0001) == 1

    def test_string_interns_cstring(self, space):
        raw = space.encode("hello")
        assert isinstance(space.resolve(raw), CString)

    def test_bytes_interns_buffer(self, space):
        raw = space.encode(b"data")
        assert isinstance(space.resolve(raw), Buffer)

    def test_list_interns_word_array(self, space):
        raw = space.encode([1, 2, 3])
        assert isinstance(space.resolve(raw), WordArray)

    def test_unencodable_rejected(self, space):
        with pytest.raises(TypeError):
            space.encode(object())


class TestDecode:
    def test_integer_param_decodes_as_int(self, space):
        arg = space.decode(0xFFFFFFFF, pointer_like=False)
        assert arg.kind is ArgKind.INT
        assert arg.raw == 0xFFFFFFFF

    def test_zero_pointer_decodes_as_null(self, space):
        arg = space.decode(0, pointer_like=True)
        assert arg.kind is ArgKind.NULL
        assert arg.is_null

    def test_unknown_pointer_decodes_as_wild(self, space):
        arg = space.decode(0xBAD0BAD0, pointer_like=True)
        assert arg.kind is ArgKind.WILD

    def test_valid_pointer_decodes_to_object(self, space):
        buf = Buffer(b"x")
        arg = space.decode(space.intern(buf), pointer_like=True)
        assert arg.kind is ArgKind.OBJECT
        assert arg.obj is buf

    def test_flipped_valid_pointer_is_wild(self, space):
        address = space.intern(Buffer(b"x"))
        arg = space.decode(address ^ 0xFFFFFFFF, pointer_like=True)
        assert arg.kind is ArgKind.WILD


class TestDeref:
    def test_deref_object(self, space):
        buf = Buffer(b"x")
        arg = space.decode(space.intern(buf), pointer_like=True)
        assert deref(arg) is buf

    def test_deref_null_faults(self, space):
        with pytest.raises(AccessViolation):
            deref(space.decode(0, pointer_like=True))

    def test_deref_wild_faults(self, space):
        with pytest.raises(AccessViolation):
            deref(space.decode(0x12345678, pointer_like=True))

    def test_deref_wrong_type_faults(self, space):
        arg = space.decode(space.intern(CString("s")), pointer_like=True)
        with pytest.raises(AccessViolation):
            deref(arg, Buffer)

    def test_opt_deref_null_is_none(self, space):
        assert opt_deref(space.decode(0, pointer_like=True)) is None

    def test_opt_deref_wild_faults(self, space):
        with pytest.raises(AccessViolation):
            opt_deref(space.decode(0x666, pointer_like=True))

    def test_string_at_reads_cstring(self, space):
        arg = space.decode(space.encode("apache"), pointer_like=True)
        assert string_at(arg) == "apache"

    def test_string_at_reads_buffer_to_nul(self, space):
        arg = space.decode(space.encode(b"ab\0cd"), pointer_like=True)
        assert string_at(arg) == "ab"

    def test_opt_string_at_null(self, space):
        assert opt_string_at(space.decode(0, pointer_like=True)) is None

    def test_access_violation_records_address(self, space):
        try:
            deref(space.decode(0xCAFE0000, pointer_like=True))
        except AccessViolation as fault:
            assert fault.address == 0xCAFE0000
        else:  # pragma: no cover
            pytest.fail("expected AccessViolation")


def test_out_cell_holds_value():
    cell = OutCell(7, label="count")
    cell.value = 9
    assert cell.value == 9
    assert "count" in repr(cell)


def test_zeroed_buffer():
    buffer = Buffer.zeroed(5, label="block")
    assert type(buffer.data) is bytearray
    assert buffer.data == bytes(5)
    assert buffer.label == "block"
    assert len(Buffer.zeroed(0)) == 0
