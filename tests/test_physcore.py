import numpy as np
import pytest

from qfall.errors import DomainError
from qfall.physcore import CONSTANTS, PhysicalConstants, derive_scales


def test_reference_scale_values():
    s = derive_scales(9.81)
    assert s.length == pytest.approx(5.87e-6, rel=5e-3)
    assert s.energy / CONSTANTS.electron_volt == pytest.approx(0.602e-12, rel=5e-3)
    assert s.time == pytest.approx(1e-3, rel=0.1)
    assert s.velocity == pytest.approx(1e-2, rel=0.1)


@pytest.mark.parametrize("g", np.geomspace(1.0, 100.0, 9))
def test_equivalent_closed_forms(g):
    # the same scales expressed through independent algebraic routes
    s = derive_scales(g)
    hbar, m = CONSTANTS.hbar, CONSTANTS.atom_mass
    assert s.time == pytest.approx((2.0 * hbar / (m * g * g)) ** (1.0 / 3.0), rel=1e-12)
    assert s.momentum == pytest.approx((2.0 * hbar * m * m * g) ** (1.0 / 3.0), rel=1e-12)
    assert s.length == pytest.approx(hbar / s.momentum, rel=1e-12)
    assert s.length == pytest.approx(g * s.time ** 2 / 2.0, rel=1e-12)
    assert s.energy * s.time == pytest.approx(hbar, rel=1e-12)
    assert s.momentum == pytest.approx(m * s.velocity, rel=1e-12)


def test_octupling_g_halves_length():
    a, b = derive_scales(9.81), derive_scales(8 * 9.81)
    assert b.length == pytest.approx(a.length / 2.0, rel=1e-12)


def test_invalid_inputs_raise():
    with pytest.raises(DomainError):
        derive_scales(0.0)
    with pytest.raises(DomainError):
        derive_scales(-9.81)
    with pytest.raises(DomainError):
        derive_scales(float("nan"))
    with pytest.raises(DomainError):
        PhysicalConstants(positron_mass=CONSTANTS.atom_mass * 0.1)
    with pytest.raises(DomainError):
        PhysicalConstants(hbar=-1.0)
