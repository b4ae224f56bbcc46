"""Tests for the narrow-adder datapath (paper Section 3.1, Figure 3).

The central correctness property: for any base and any displacement
whose upper bits are uniform, the tag reconstructed from (base tag,
carry, sign) equals the tag of the full 32-bit sum, and the set-index
from the 14-bit adder is always exact.
"""

import pytest
from hypothesis import given, strategies as st

from repro.cache.config import FRV_DCACHE
from repro.core.address import (
    SignClass,
    displacement_sign_class,
    partial_add,
)

M32 = 0xFFFFFFFF


def test_sign_class_boundaries():
    assert displacement_sign_class(0) is SignClass.ZERO
    assert displacement_sign_class((1 << 13) - 1) is SignClass.ZERO
    assert displacement_sign_class(1 << 13) is SignClass.ZERO
    assert displacement_sign_class((1 << 14) - 1) is SignClass.ZERO
    assert displacement_sign_class(1 << 14) is SignClass.OTHER
    assert displacement_sign_class(-1) is SignClass.ONE
    assert displacement_sign_class(-(1 << 14)) is SignClass.ONE
    assert displacement_sign_class(-(1 << 14) - 1) is SignClass.OTHER


def test_cflag_encoding():
    ps = partial_add(0x3FFF, 1)  # carry out of the low 14 bits
    assert ps.carry == 1
    assert ps.sign is SignClass.ZERO
    assert ps.cflag == 0b10
    ps = partial_add(0x0, -1)
    assert ps.carry == 0
    assert ps.sign is SignClass.ONE
    assert ps.cflag == 0b01


def test_target_tag_simple_cases():
    base = 0x0004_1000
    assert partial_add(base, 16).target_tag(18) == (base + 16) >> 14
    assert partial_add(base, -16).target_tag(18) == (base - 16) >> 14
    # Carry across the tag boundary.
    base = 0x0004_3FF0
    assert partial_add(base, 0x20).target_tag(18) == (base + 0x20) >> 14


def test_target_tag_undefined_for_other():
    ps = partial_add(0x1000, 1 << 20)
    assert not ps.usable
    with pytest.raises(ValueError):
        ps.target_tag(18)


def test_set_index_matches_full_sum():
    base, disp = 0x0004_1234, 300
    ps = partial_add(base, disp)
    expected = FRV_DCACHE.set_of(base + disp)
    assert ps.set_index(5, 9) == expected


def test_low_bits_validation():
    with pytest.raises(ValueError):
        partial_add(0, 0, low_bits=0)
    with pytest.raises(ValueError):
        partial_add(0, 0, low_bits=32)


@given(
    base=st.integers(0, M32),
    disp=st.integers(-(1 << 13), (1 << 13) - 1),
)
def test_tag_reconstruction_equals_full_adder(base, disp):
    """The headline claim: tag computable without the 32-bit adder."""
    ps = partial_add(base, disp, 14)
    assert ps.usable
    full = (base + disp) & M32
    assert ps.target_tag(18) == full >> 14


@given(
    base=st.integers(0, M32),
    disp=st.integers(-(1 << 20), (1 << 20) - 1),
)
def test_set_index_always_exact(base, disp):
    """Low 14 bits of the sum depend only on low 14 bits of inputs."""
    ps = partial_add(base, disp, 14)
    full = (base + disp) & M32
    assert ps.low == (full & 0x3FFF)
    assert ps.set_index(5, 9) == (full >> 5) & 0x1FF


@given(
    base=st.integers(0, M32),
    disp=st.integers(-(1 << 31), (1 << 31) - 1),
    width=st.sampled_from([10, 12, 14, 16]),
)
def test_usable_iff_uniform_upper_bits(base, disp, width):
    ps = partial_add(base, disp, width)
    fits = -(1 << width) <= disp < (1 << width)
    assert ps.usable == fits
    if ps.usable:
        full = (base + disp) & M32
        assert ps.target_tag(32 - width) == full >> width


@pytest.mark.parametrize("width", [8, 10, 12, 14, 16])
def test_vectorized_bypass_rate_matches_sign_class(width):
    """ablation_adder_width's array expression counts exactly the
    displacements displacement_sign_class puts in OTHER."""
    import numpy as np

    from repro.experiments.ablation_adder_width import bypass_rate

    edges = [0, 1, -1, (1 << 31) - 1, -(1 << 31)]
    for shift in (width - 1, width, width + 1):
        edges += [(1 << shift) - 1, 1 << shift, -(1 << shift),
                  -(1 << shift) - 1]
    rng = np.random.default_rng(width)
    disps = np.concatenate((
        np.array(edges, dtype=np.int64).astype(np.int32),
        rng.integers(-(1 << 31), 1 << 31, size=500).astype(np.int32),
        rng.integers(-(1 << 17), 1 << 17, size=500).astype(np.int32),
    ))
    expected = sum(
        displacement_sign_class(int(d), width) is SignClass.OTHER
        for d in disps.tolist()
    ) / len(disps)
    assert bypass_rate(disps, width) == expected
    assert bypass_rate(disps[:0], width) == 0.0
