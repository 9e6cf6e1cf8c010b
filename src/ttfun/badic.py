"""Base-b positional coordinates on [0,1).

A point x in [0,1) is split into d base-b digits and a remainder,
x = sum_k i_k b^-k + b^-d y.  Digit extraction works incrementally
(multiply by b, take the integer part) so that it stays accurate for
large d, where forming b**d would overflow or lose precision.
`extract_digits` is the only digit extractor in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BaseBCoordinate:
    """Digits (i_1, ..., i_d) and remainder y of a point in [0,1)."""

    base: int
    digits: tuple[int, ...]
    remainder: float

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        for i in self.digits:
            if not 0 <= i < self.base:
                raise ValueError(f"digit {i} out of range for base {self.base}")
        if not 0.0 <= self.remainder < 1.0:
            raise ValueError(f"remainder {self.remainder} outside [0, 1)")

    @property
    def level(self) -> int:
        return len(self.digits)


def decode(c: BaseBCoordinate) -> float:
    """Point represented by the coordinate: sum_k i_k b^-k + b^-d y."""
    # Horner evaluation from the innermost digit; never forms b**d.
    x = c.remainder
    for i in reversed(c.digits):
        x = (x + i) / c.base
    return x


def extract_digits(x, base: int, level: int) -> tuple:
    """Digits, shape (level,) + x.shape, and remainders of x in [0,1); any
    other point, NaN included, raises ValueError.

    Digits stay unpacked because a packed cell index b**level overflows
    int64 at the depths trains reach.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    scalar = isinstance(x, (int, float))  # a 0-d array takes the array path
    y = float(x) if scalar else np.array(x, dtype=float)  # a copy
    if not (0.0 <= y < 1.0 if scalar else np.all((y >= 0.0) & (y < 1.0))):
        raise ValueError("point outside [0, 1)")
    floor = math.floor if scalar else np.floor  # y // 1.0 is slow on arrays
    digits = []
    for _ in range(level):
        # a double y < 1 gives y * base < base after rounding, so the floor
        # is a digit and the exact remainder y - floor(y) stays in [0, 1)
        y *= base
        digit = floor(y)
        y -= digit
        digits.append(digit)
    digits = np.array(digits, dtype=np.int64)
    return (digits if scalar else digits.reshape((level,) + y.shape)), y


def encode(x: float, base: int, level: int) -> BaseBCoordinate:
    """Split x in [0,1) into `level` base-`base` digits and a remainder.

    Level 0 returns empty digits and remainder x.  A point sitting exactly
    on a cell boundary lands in the cell to its right (remainder 0), which
    matches the half-open cells [b^-d j, b^-d (j+1)).
    """
    digits, y = extract_digits(x, base, level)
    return BaseBCoordinate(base, tuple(digits.tolist()), float(y))


def recompose(outer: BaseBCoordinate, inner: BaseBCoordinate) -> BaseBCoordinate:
    """Concatenate digit blocks: the level-(d+e) coordinate whose first d
    digits come from `outer` and whose tail refines outer's remainder.

    Requires outer.remainder == decode(inner); an outer coordinate at
    level 0 returns `inner` unchanged.
    """
    if outer.base != inner.base:
        raise ValueError(f"base mismatch: {outer.base} != {inner.base}")
    if abs(outer.remainder - decode(inner)) > 1e-9:
        raise ValueError("inner coordinate does not refine outer remainder")
    if outer.level == 0:
        return inner
    return BaseBCoordinate(outer.base, outer.digits + inner.digits, inner.remainder)
