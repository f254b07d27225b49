from fractions import Fraction

import numpy as np
import pytest

from hgs.errors import DomainError
from hgs.group import (GroupPoint, LatticeIndex, QuasiLatticeSpec, group_inv,
                       group_mul, schrodinger_apply)
from hgs.windows import Window


def test_group_mul_basic():
    assert group_mul(GroupPoint(1, 0, 0), GroupPoint(0, 1, 0)) == \
        GroupPoint(1, 1, 1)
    x = GroupPoint(0.3, -1.2, 7.0)
    assert group_mul(x, GroupPoint(0, 0, 0)) == x
    assert group_mul(GroupPoint(1, 1, 1), GroupPoint(-1, -1, 0)) == \
        GroupPoint(0, 0, 0)


def test_group_inv():
    assert group_inv(GroupPoint(0, 0, 0)) == GroupPoint(0, 0, 0)
    assert group_inv(GroupPoint(1, 1, 1)) == GroupPoint(-1, -1, 0)
    assert group_inv(GroupPoint(2, 3, 0)) == GroupPoint(-2, -3, 6)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = GroupPoint(*rng.normal(size=3))
        for side in (group_mul(a, group_inv(a)), group_mul(group_inv(a), a)):
            for c in (side.x1, side.x2, side.x3):
                assert abs(c) <= 1e-12


def test_associativity_exact_on_rationals():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pts = [GroupPoint(*(Fraction(int(n), int(d))
                            for n, d in zip(rng.integers(-20, 20, 3),
                                            rng.integers(1, 12, 3))))
               for _ in range(3)]
        a, b, c = pts
        assert group_mul(group_mul(a, b), c) == group_mul(a, group_mul(b, c))


def test_associativity_floats():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b, c = (GroupPoint(*rng.normal(size=3)) for _ in range(3))
        lhs = group_mul(group_mul(a, b), c)
        rhs = group_mul(a, group_mul(b, c))
        assert abs(lhs.x1 - rhs.x1) <= 1e-12
        assert abs(lhs.x2 - rhs.x2) <= 1e-12
        assert abs(lhs.x3 - rhs.x3) <= 1e-12


def test_group_point_rejects_nonfinite():
    with pytest.raises(DomainError):
        GroupPoint(float("nan"), 0, 0)


def test_lattice_spec_validation():
    with pytest.raises(DomainError):
        QuasiLatticeSpec(alpha=0, beta=1)
    spec = QuasiLatticeSpec(alpha=2, beta=1)
    assert spec.is_integer
    assert not QuasiLatticeSpec(alpha=0.5, beta=1).is_integer


def test_lattice_realize():
    spec = QuasiLatticeSpec(alpha=0.5, beta=3.0)
    p = LatticeIndex(2, -1, 4).realize(spec)
    assert (p.x1, p.x2, p.x3) == (1.0, -3.0, 4.0)


def test_schrodinger_central_character():
    f = Window.indicator(0.0, 1.0)
    lam = 0.3
    g = schrodinger_apply(lam, GroupPoint(0, 0, 2.5), f)
    got = g(0.5)
    assert got == pytest.approx(np.exp(2j * np.pi * lam * 2.5), abs=1e-14)
    assert g.support() == f.support()


def test_schrodinger_pure_shift():
    f = Window.piecewise_linear([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    g = schrodinger_apply(0.7, GroupPoint(1.25, 0, 0), f)
    assert g.support() == (1.25, 3.25)
    assert g(2.25) == pytest.approx(f(1.0), abs=1e-14)


def test_schrodinger_unitary():
    rng = np.random.default_rng(42)
    for _ in range(10):
        lam = rng.uniform(0.1, 2.0) * rng.choice([-1, 1])
        x = GroupPoint(*rng.normal(size=3))
        f = Window.indicator(rng.uniform(-2, 0), rng.uniform(0.5, 2.0),
                             rng.normal() + 1j * rng.normal())
        g = schrodinger_apply(lam, x, f)
        assert g.norm2() == pytest.approx(f.norm2(), rel=1e-10)


def test_schrodinger_representation_property():
    rng = np.random.default_rng(43)
    f = Window.piecewise_linear([-1.0, 0.0, 0.5], [0.0, 1.0 - 0.5j, 0.0])
    for _ in range(10):
        lam = rng.uniform(0.2, 1.5)
        a = GroupPoint(*rng.normal(size=3))
        b = GroupPoint(*rng.normal(size=3))
        lhs = schrodinger_apply(lam, group_mul(a, b), f)
        rhs = schrodinger_apply(lam, a, schrodinger_apply(lam, b, f))
        assert (lhs - rhs).norm2() <= 1e-12


def test_schrodinger_rejects_zero_lambda():
    with pytest.raises(DomainError):
        schrodinger_apply(0.0, GroupPoint(0, 0, 0), Window.indicator(0, 1))
