"""Bit-twiddling helpers shared by the F2 kernels."""
from __future__ import annotations

from typing import Iterator

import numpy as np


def parity(x: int) -> int:
    """Parity of the popcount of a nonnegative int."""
    return bin(x).count("1") & 1


def parity_u64(arr: np.ndarray) -> np.ndarray:
    """Elementwise popcount parity of a uint64 array."""
    return (np.bitwise_count(arr) & np.uint64(1)).astype(np.uint8)


def set_bits(x: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative int, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def mask_bits(width: int) -> int:
    return (1 << width) - 1


def bits_to_string(x: int, width: int) -> str:
    """Little-endian text form: leftmost character is coordinate 0."""
    return "".join("1" if (x >> i) & 1 else "0" for i in range(width))


def string_to_bits(s: str) -> int:
    x = 0
    for i, ch in enumerate(s):
        if ch == "1":
            x |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid bit character {ch!r}")
    return x
