"""Immutable bit strings.

A :class:`BitString` is an ordered sequence of bits with an explicit length.
Bit 0 is the first bit of the sequence and, in the integer representation,
the least-significant bit.  Byte serialization follows the same rule: byte k
holds bits 8k..8k+7 with bit 8k in the byte's least-significant position.
The bit length is not stored in the byte form and must be carried separately.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class BitString:
    """Immutable sequence of bits, stored as (integer value, length)."""

    __slots__ = ("_value", "_length")

    def __init__(self, value: int, length: int):
        if length < 0:
            raise ValueError(f"negative length {length}")
        if value < 0 or value >> length:
            raise ValueError(f"value {value:#x} does not fit in {length} bits")
        object.__setattr__(self, "_value", value)
        object.__setattr__(self, "_length", length)

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        value = 0
        length = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bit value {b!r} is not 0 or 1")
            value |= b << length
            length += 1
        return cls(value, length)

    @classmethod
    def from_bytes(cls, data: bytes, length: int | None = None) -> "BitString":
        if length is None:
            length = 8 * len(data)
        if length > 8 * len(data):
            raise ValueError(f"{len(data)} bytes hold fewer than {length} bits")
        # a negative length masks to 0 and is refused by the constructor
        value = int.from_bytes(data, "little") & ((1 << max(length, 0)) - 1)
        return cls(value, length)

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls(0, length)

    @classmethod
    def ones(cls, length: int) -> "BitString":
        return cls((1 << length) - 1, length)

    def to_int(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        return self._value.to_bytes((self._length + 7) // 8, "little")

    def bits(self) -> tuple[int, ...]:
        return tuple((self._value >> i) & 1 for i in range(self._length))

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self._length)
            if step != 1:
                raise ValueError("BitString slices must have step 1")
            width = max(0, stop - start)
            return BitString((self._value >> start) & ((1 << width) - 1), width)
        index = int(key)
        if index < 0 or index >= self._length:
            raise IndexError(f"bit index {index} out of range [0, {self._length})")
        return (self._value >> index) & 1

    def __iter__(self) -> Iterator[int]:
        for i in range(self._length):
            yield (self._value >> i) & 1

    def __add__(self, other: "BitString") -> "BitString":
        """Concatenation; the bits of ``self`` come first."""
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString(
            self._value | (other._value << self._length),
            self._length + other._length,
        )

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if self._length != other._length:
            raise ValueError(
                f"xor of lengths {self._length} and {other._length}"
            )
        return BitString(self._value ^ other._value, self._length)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self._value == other._value
            and self._length == other._length
        )

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __repr__(self) -> str:
        return f"BitString({''.join(str(b) for b in self.bits())!r})"
