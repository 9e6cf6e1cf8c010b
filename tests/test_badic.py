"""Base-b coordinate arithmetic: digit extraction, decoding, composition."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ttfun import BaseBCoordinate, decode, encode, recompose
from ttfun.badic import extract_digits


def reference_encode(x, base, level):
    """The scalar digit loop `encode` used before `extract_digits` existed,
    kept as the bit-for-bit reference for it."""
    digits = []
    y = x
    for _ in range(level):
        y *= base
        i = int(y)
        if i >= base:  # guard against rounding up at a cell boundary
            i = base - 1
        y -= i
        if y >= 1.0:
            y = math.nextafter(1.0, 0.0)
        elif y < 0.0:
            y = 0.0
        digits.append(i)
    return tuple(digits), y


def test_decode_level_zero_is_identity():
    assert decode(BaseBCoordinate(2, (), 0.3)) == 0.3


def test_decode_dyadic():
    # 1/2 + 0 + 0.25 * 0.5
    assert decode(BaseBCoordinate(2, (1, 0), 0.5)) == 0.625


def test_decode_triadic():
    assert decode(BaseBCoordinate(3, (2,), 0.0)) == pytest.approx(2.0 / 3.0,
                                                                 abs=1e-16)


def test_coordinate_validation():
    with pytest.raises(ValueError):
        BaseBCoordinate(2, (2,), 0.0)
    with pytest.raises(ValueError):
        BaseBCoordinate(2, (0,), 1.0)
    with pytest.raises(ValueError):
        BaseBCoordinate(2, (0,), -0.1)
    with pytest.raises(ValueError):
        BaseBCoordinate(1, (), 0.0)


def test_encode_dyadic():
    c = encode(0.625, 2, 2)
    assert c.digits == (1, 0)
    assert c.remainder == 0.5


def test_encode_zero():
    c = encode(0.0, 5, 4)
    assert c.digits == (0, 0, 0, 0)
    assert c.remainder == 0.0


def test_encode_one_third_base3():
    # oracle: 3^2 * (1/3) = 3, whose width-2 base-3 digits are (1, 0)
    x = Fraction(1, 3)
    scaled = x * 3**2
    digits_oracle = tuple(int(d) for d in np.base_repr(int(scaled), 3).zfill(2))
    c = encode(float(x), 3, 2)
    assert c.digits == digits_oracle
    assert abs(c.remainder - float(scaled - int(scaled))) < 1e-15


def test_encode_domain_errors():
    for bad in (-0.1, 1.0, 1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            encode(bad, 2, 3)
        with pytest.raises(ValueError):
            extract_digits(np.array([[0.5, bad]]), 2, 3)
    for fn in (encode, extract_digits):
        with pytest.raises(ValueError):
            fn(0.5, 1, 3)
        with pytest.raises(ValueError):
            fn(0.5, 2, -1)


@pytest.mark.parametrize("b", [2, 3, 5, 10])
def test_extract_digits_matches_reference_loop(b, rng):
    """Digits and remainders equal the reference loop bit for bit, for
    arrays and for scalars through encode, on random points, grid points
    and the points just below 1."""
    below_one = 1.0 - np.arange(1, 65) * 2.0**-53
    pts = np.concatenate([rng.uniform(0.0, 1.0, size=400),
                          np.arange(b**3) / b**3, below_one])
    for level in range(41):
        digits, rem = extract_digits(pts, b, level)
        assert digits.shape == (level, pts.size)
        for j, x in enumerate(pts):
            want_digits, want_rem = reference_encode(float(x), b, level)
            assert tuple(digits[:, j]) == want_digits
            assert rem[j] == want_rem
            if j % 8 == 0:
                c = encode(float(x), b, level)
                assert c.digits == want_digits
                assert c.remainder == want_rem
                assert type(c.remainder) is float


def test_cell_boundary_maps_right():
    """A point on a cell boundary lands in the cell to its right."""
    c = encode(0.5, 2, 1)
    assert c.digits == (1,)
    assert c.remainder == 0.0


@pytest.mark.parametrize("b", [2, 3, 5])
def test_roundtrip_random(b, rng):
    x = rng.uniform(0.0, 1.0, size=2000)
    for d in (1, 7, 20):
        for xi in x[:500]:
            assert abs(decode(encode(float(xi), b, d)) - xi) <= 2.0**-50


def test_recompose_concatenates():
    outer = BaseBCoordinate(2, (1,), 0.25)
    inner = BaseBCoordinate(2, (0,), 0.5)
    assert decode(inner) == 0.25
    c = recompose(outer, inner)
    assert c.digits == (1, 0)
    assert c.remainder == 0.5


def test_recompose_level_zero_outer():
    inner = BaseBCoordinate(2, (1, 0), 0.3)
    outer = BaseBCoordinate(2, (), decode(inner))
    assert recompose(outer, inner) is inner


def test_recompose_base_mismatch():
    with pytest.raises(ValueError):
        recompose(BaseBCoordinate(2, (1,), 0.0), BaseBCoordinate(3, (0,), 0.0))


def test_recompose_refinement_mismatch():
    with pytest.raises(ValueError):
        recompose(BaseBCoordinate(2, (1,), 0.9), BaseBCoordinate(2, (0,), 0.0))


@pytest.mark.parametrize("b", [2, 3, 5])
def test_composition_property(b, rng):
    """Encoding deep equals recomposing a shallow encode with an encode of
    its remainder: digits agree exactly, remainders to 2^-45."""
    d, dbar = 3, 9
    for xi in rng.uniform(0.0, 1.0, size=2000):
        full = encode(float(xi), b, dbar)
        outer = encode(float(xi), b, d)
        inner = encode(outer.remainder, b, dbar - d)
        combined = recompose(outer, inner)
        assert combined.digits == full.digits
        assert abs(combined.remainder - full.remainder) <= 2.0**-45


def test_digit_monotonicity(rng):
    x = np.sort(rng.uniform(0.0, 1.0, size=500))
    prev = -1
    for xi in x:
        c = encode(float(xi), 3, 6)
        as_int = 0
        for i in c.digits:
            as_int = as_int * 3 + i
        assert as_int >= prev
        prev = as_int
