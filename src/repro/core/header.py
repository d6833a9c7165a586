"""Bit-level cell header encoding (paper Appendix C, Fig. 19).

The 12-byte (96-bit) header layout valid for up to 32,768 nodes and h <= 4:

    source id          15 bits
    destination id     15 bits
    remaining sprays    2 bits
    sequence number    18 bits
    token 1            17 bits
    token 2            17 bits
    token kinds         4 bits  (2 per token)
    CRC checksum        8 bits

Each token field encodes a hop-by-hop token: a destination id (15 bits) plus
a 2-bit tag.  Tag values distinguish an absent token, a regular token, an
invalidation token, and a re-validation token (Section 3.4 adds "two bits to
differentiate them").  Inside a token the remaining-sprays index is carried
in the tag's companion bits; to stay within 17 bits per token we follow the
paper's layout and pack ``(destination, sprays)`` for regular tokens where
``sprays`` reuses the 2 high bits of the destination space left free for
N <= 8,192 deployments, falling back to a 2-token-word encoding otherwise.
For the purposes of this reproduction we implement the straightforward
variant: 15 bits destination + 2 bits spray index, with the token *kind*
carried in a per-header 4-bit kind nibble taken from the sequence number
(Fig. 19's 22 bits become 18).
The wire format is self-consistent (pack -> unpack round-trips) and size
accurate (96 bits), which is what the throughput accounting depends on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = [
    "Token",
    "TOKEN_REGULAR",
    "TOKEN_INVALIDATE",
    "TOKEN_REVALIDATE",
    "HeaderCodec",
    "crc8",
]

# token kinds (2 bits on the wire)
TOKEN_ABSENT = 0
TOKEN_REGULAR = 1
TOKEN_INVALIDATE = 2
TOKEN_REVALIDATE = 3

_KIND_NAMES = {
    TOKEN_REGULAR: "regular",
    TOKEN_INVALIDATE: "invalidate",
    TOKEN_REVALIDATE: "revalidate",
}


class Token:
    """A hop-by-hop token: ``(destination, remaining sprays, kind)``.

    Regular tokens grant the receiver permission to send one more cell in
    bucket ``(dest, sprays)`` via the sender.  Invalidation and re-validation
    tokens implement the failure protocol of Section 3.4 / Appendix A.
    """

    __slots__ = ("dest", "sprays", "kind")

    def __init__(self, dest: int, sprays: int, kind: int = TOKEN_REGULAR):
        if kind not in _KIND_NAMES:
            raise ValueError(f"invalid token kind {kind}")
        self.dest = dest
        self.sprays = sprays
        self.kind = kind

    def bucket(self) -> Tuple[int, int]:
        return (self.dest, self.sprays)

    def state(self) -> Tuple[int, int, int]:
        """``(dest, sprays, kind)`` — checkpoint encoding."""
        return (self.dest, self.sprays, self.kind)

    @classmethod
    def from_state(cls, state: Tuple[int, int, int]) -> "Token":
        return cls(*state)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Token)
            and self.dest == other.dest
            and self.sprays == other.sprays
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        return hash((self.dest, self.sprays, self.kind))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({_KIND_NAMES[self.kind]}, dest={self.dest}, sprays={self.sprays})"


_CRC8_POLY = 0x07  # CRC-8-CCITT


def crc8(data: bytes) -> int:
    """Plain CRC-8 (poly 0x07), used for the header checksum field."""
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 0x80:
                crc = ((crc << 1) ^ _CRC8_POLY) & 0xFF
            else:
                crc = (crc << 1) & 0xFF
    return crc


# Field widths, most significant first.  Fig. 19 gives seq 22 bits with no
# token-kind bits; Section 3.4 then *adds* two bits per token to distinguish
# regular/invalidation/re-validation tokens.  To keep the 12-byte wire size
# we carve those four bits out of the sequence number (22 -> 18 bits), which
# still addresses 64 MB flows before wrapping.
_SRC_BITS = 15
_DST_BITS = 15
_SPRAY_BITS = 2
_SEQ_BITS = 18
_TOKEN_BITS = 17  # 15-bit dest + 2-bit spray index
_TOKEN_KIND_BITS = 2  # two per header
_CRC_BITS = 8

_HEADER_BITS = (
    _SRC_BITS
    + _DST_BITS
    + _SPRAY_BITS
    + _SEQ_BITS
    + 2 * _TOKEN_BITS
    + 2 * _TOKEN_KIND_BITS
    + _CRC_BITS
)
assert _HEADER_BITS == 96, _HEADER_BITS

_MAX_NODES = 1 << _SRC_BITS
_MAX_SEQ = 1 << _SEQ_BITS
_MAX_SPRAYS = 1 << _SPRAY_BITS


class HeaderCodec:
    """Packs and unpacks 12-byte Shale cell headers.

    The codec is stateless; one shared instance can serve every node.
    """

    HEADER_BYTES = 12
    MAX_TOKENS_PER_HEADER = 2

    def pack(
        self,
        src: int,
        dst: int,
        sprays: int,
        seq: int,
        tokens: Optional[List[Token]] = None,
    ) -> bytes:
        """Encode a header. ``tokens`` may hold up to two tokens."""
        tokens = tokens or []
        if len(tokens) > self.MAX_TOKENS_PER_HEADER:
            raise ValueError(
                f"at most {self.MAX_TOKENS_PER_HEADER} tokens per header, "
                f"got {len(tokens)}"
            )
        if not 0 <= src < _MAX_NODES:
            raise ValueError(f"src {src} exceeds 15-bit node id space")
        if not 0 <= dst < _MAX_NODES:
            raise ValueError(f"dst {dst} exceeds 15-bit node id space")
        if not 0 <= sprays < _MAX_SPRAYS:
            raise ValueError(f"sprays {sprays} exceeds 2-bit field (h <= 4)")
        if not 0 <= seq < _MAX_SEQ:
            raise ValueError(f"seq {seq} exceeds {_SEQ_BITS}-bit field")

        value = src
        value = (value << _DST_BITS) | dst
        value = (value << _SPRAY_BITS) | sprays
        value = (value << _SEQ_BITS) | seq
        kinds = []
        for i in range(self.MAX_TOKENS_PER_HEADER):
            if i < len(tokens):
                tok = tokens[i]
                if not 0 <= tok.dest < _MAX_NODES:
                    raise ValueError(f"token dest {tok.dest} exceeds 15 bits")
                if not 0 <= tok.sprays < _MAX_SPRAYS:
                    raise ValueError(f"token sprays {tok.sprays} exceeds 2 bits")
                word = (tok.dest << _SPRAY_BITS) | tok.sprays
                kinds.append(tok.kind)
            else:
                word = 0
                kinds.append(TOKEN_ABSENT)
            value = (value << _TOKEN_BITS) | word
        for kind in kinds:
            value = (value << _TOKEN_KIND_BITS) | kind

        # 88 bits of fields -> 11 bytes of body; the CRC byte completes 12.
        body = value.to_bytes(11, "big")
        return body + bytes([crc8(body)])

    def unpack(self, data: bytes) -> Tuple[int, int, int, int, List[Token]]:
        """Decode a header into ``(src, dst, sprays, seq, tokens)``.

        Raises ``ValueError`` on length or checksum mismatch.
        """
        if len(data) != self.HEADER_BYTES:
            raise ValueError(f"header must be {self.HEADER_BYTES} bytes, got {len(data)}")
        body, crc = data[:11], data[11]
        if crc8(body) != crc:
            raise ValueError("header CRC mismatch")
        value = int.from_bytes(body, "big")

        kinds = []
        for _ in range(self.MAX_TOKENS_PER_HEADER):
            kinds.append(value & ((1 << _TOKEN_KIND_BITS) - 1))
            value >>= _TOKEN_KIND_BITS
        kinds.reverse()

        words = []
        for _ in range(self.MAX_TOKENS_PER_HEADER):
            words.append(value & ((1 << _TOKEN_BITS) - 1))
            value >>= _TOKEN_BITS
        words.reverse()

        seq = value & (_MAX_SEQ - 1)
        value >>= _SEQ_BITS
        sprays = value & (_MAX_SPRAYS - 1)
        value >>= _SPRAY_BITS
        dst = value & (_MAX_NODES - 1)
        value >>= _DST_BITS
        src = value & (_MAX_NODES - 1)

        tokens = []
        for word, kind in zip(words, kinds):
            if kind == TOKEN_ABSENT:
                continue
            tokens.append(Token(word >> _SPRAY_BITS, word & (_MAX_SPRAYS - 1), kind))
        return src, dst, sprays, seq, tokens
