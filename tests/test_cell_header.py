"""Unit tests for cells and the wire header codec."""

import pytest

from repro.core.cell import (
    CELL_SIZE_BYTES,
    HEADER_SIZE_BYTES,
    PAYLOAD_SIZE_BYTES,
    Cell,
)
from repro.core.header import (
    TOKEN_INVALIDATE,
    TOKEN_REGULAR,
    TOKEN_REVALIDATE,
    HeaderCodec,
    Token,
    crc8,
)
from repro.sim import tables
from repro.sim.node import Transmission


class TestCell:
    def test_sizes_match_paper(self):
        assert CELL_SIZE_BYTES == 256
        assert HEADER_SIZE_BYTES == 12
        assert PAYLOAD_SIZE_BYTES == 244

    def test_bucket(self):
        cell = Cell(src=1, dst=9, sprays_remaining=2)
        assert cell.bucket() == (9, 2)

    def test_dummy(self):
        # a dummy is a bare header, not a cell: a transmission without a
        # payload carries ``cell=None`` and leaves no ``cells`` row
        assert not hasattr(Cell(3, 4), "dummy")
        tx = Transmission(3, 4, None)
        tx.arrival = 5
        rows = {name: [] for name in tables.TABLES}
        tx.state_rows(rows)
        assert rows["wire"] == [(3, 4, 5, False)] and rows["cells"] == []
        restored = Transmission.from_state(next(tables.wire_states(
            tables.model(rows))))
        assert (restored.sender, restored.receiver, restored.arrival,
                restored.cell) == (3, 4, 5, None)

    def test_defaults(self):
        cell = Cell(0, 1)
        assert cell.prev_hop == -1
        assert cell.hops == 0
        assert len(cell.state()) == len(tables.TABLES["cells"]) == 9


class TestCrc8:
    def test_deterministic(self):
        assert crc8(b"hello") == crc8(b"hello")

    def test_detects_bit_flip(self):
        assert crc8(b"hello") != crc8(b"hellp")

    def test_empty(self):
        assert crc8(b"") == 0


class TestToken:
    def test_equality(self):
        assert Token(5, 1) == Token(5, 1)
        assert Token(5, 1) != Token(5, 0)
        assert Token(5, 1, TOKEN_INVALIDATE) != Token(5, 1, TOKEN_REGULAR)

    def test_bucket(self):
        assert Token(7, 2).bucket() == (7, 2)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Token(1, 0, kind=7)

    def test_hashable(self):
        assert len({Token(1, 0), Token(1, 0), Token(2, 0)}) == 2


class TestHeaderCodec:
    def setup_method(self):
        self.codec = HeaderCodec()

    def test_header_is_12_bytes(self):
        data = self.codec.pack(src=1, dst=2, sprays=1, seq=3)
        assert len(data) == 12

    def test_roundtrip_no_tokens(self):
        data = self.codec.pack(src=100, dst=200, sprays=3, seq=12345)
        src, dst, sprays, seq, tokens = self.codec.unpack(data)
        assert (src, dst, sprays, seq) == (100, 200, 3, 12345)
        assert tokens == []

    def test_roundtrip_with_tokens(self):
        toks = [Token(300, 1), Token(400, 0, TOKEN_INVALIDATE)]
        data = self.codec.pack(1, 2, 0, 0, tokens=toks)
        *_rest, decoded = self.codec.unpack(data)
        assert decoded == toks

    def test_roundtrip_single_token(self):
        toks = [Token(0, 0, TOKEN_REVALIDATE)]
        data = self.codec.pack(1, 2, 0, 0, tokens=toks)
        *_rest, decoded = self.codec.unpack(data)
        assert decoded == toks

    def test_token_for_node_zero_distinct_from_absent(self):
        """A regular token naming node 0 must survive the trip (an all-zero
        token word with kind=regular is not confused with 'no token')."""
        data = self.codec.pack(1, 2, 0, 0, tokens=[Token(0, 0)])
        *_rest, decoded = self.codec.unpack(data)
        assert decoded == [Token(0, 0)]

    def test_crc_detects_corruption(self):
        data = bytearray(self.codec.pack(1, 2, 0, 99))
        data[3] ^= 0xFF
        with pytest.raises(ValueError, match="CRC"):
            self.codec.unpack(bytes(data))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="12 bytes"):
            self.codec.unpack(b"\x00" * 11)

    def test_too_many_tokens_rejected(self):
        toks = [Token(1, 0), Token(2, 0), Token(3, 0)]
        with pytest.raises(ValueError, match="at most"):
            self.codec.pack(1, 2, 0, 0, tokens=toks)

    def test_field_limits(self):
        with pytest.raises(ValueError):
            self.codec.pack(src=1 << 15, dst=0, sprays=0, seq=0)
        with pytest.raises(ValueError):
            self.codec.pack(src=0, dst=1 << 15, sprays=0, seq=0)
        with pytest.raises(ValueError):
            self.codec.pack(src=0, dst=0, sprays=4, seq=0)
        with pytest.raises(ValueError):
            self.codec.pack(src=0, dst=0, sprays=0, seq=1 << 18)

    def test_seq_error_names_its_18_bits(self):
        with pytest.raises(ValueError, match="exceeds 18-bit field"):
            self.codec.pack(src=0, dst=0, sprays=0, seq=1 << 18)

    def test_max_values_roundtrip(self):
        data = self.codec.pack(
            src=(1 << 15) - 1, dst=(1 << 15) - 1, sprays=3,
            seq=(1 << 18) - 1, tokens=[Token((1 << 15) - 1, 3)],
        )
        src, dst, sprays, seq, tokens = self.codec.unpack(data)
        assert src == dst == (1 << 15) - 1
        assert sprays == 3
        assert seq == (1 << 18) - 1
        assert tokens[0].dest == (1 << 15) - 1
