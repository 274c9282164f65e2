import math
from fractions import Fraction

import numpy as np
import pytest

from envlab import (
    WeightedSet,
    base_profile,
    energy_derivative_check,
    equilibrium_energy,
    ma_energy,
    weighted_envelope,
)
from envlab.energy import _pair_energy
from envlab.envelopes import window_envelope
from envlab.errors import InputError, SingularityTypeError


def bump(t):
    return 0.3 * np.exp(-np.square(np.asarray(t, dtype=float)))


def one(t):
    return np.ones_like(np.asarray(t, dtype=float))


ANCHORS = {
    "base": lambda: base_profile(1),
    "third-quarter": lambda: window_envelope(1, Fraction(1, 3), Fraction(1, 4)),
}


def test_point_obstacle_closed_form():
    # envelope max(t, 0) + log 2 against c·f_FS: E = log 2 − 1/2
    got = equilibrium_energy(base_profile(1), WeightedSet.circles([0.0]))
    assert got == pytest.approx(math.log(2) - 0.5, abs=1e-12)


def test_anchor_has_zero_energy():
    u = ANCHORS["third-quarter"]()
    assert ma_energy(u, u) == 0.0


@pytest.mark.parametrize("anchor", sorted(ANCHORS))
def test_cocycle_identity(anchor):
    # 𝓘(φ₁) − 𝓘(φ₂) is the pair integral of (φ₁, φ₂), whatever the anchor
    u = ANCHORS[anchor]()
    phis = [
        weighted_envelope(u, WeightedSet.circles([0.0])),
        weighted_envelope(u, WeightedSet.circles([-1.0, 1.5], [0.2, -0.3])),
        weighted_envelope(u, WeightedSet.interval(-1.0, 2.0, v=bump)),
    ]
    for i, phi1 in enumerate(phis):
        for phi2 in phis[i + 1:]:
            lhs = ma_energy(u, phi1) - ma_energy(u, phi2)
            assert lhs == pytest.approx(_pair_energy(phi1, phi2), abs=1e-12)


def test_other_singularity_type_rejected():
    u = ANCHORS["third-quarter"]()
    with pytest.raises(SingularityTypeError):
        ma_energy(u, base_profile(1))


@pytest.mark.parametrize("anchor", sorted(ANCHORS))
@pytest.mark.parametrize("K", [
    WeightedSet.circles([0.0]),
    WeightedSet.whole(v=bump),
], ids=["circle", "whole-bump"])
def test_constant_direction_derivative_is_the_mass(anchor, K):
    u = ANCHORS[anchor]()
    fd, exact = energy_derivative_check(u, K, one, t=0.0, delta=1e-3)
    assert fd == pytest.approx(float(u.mass), abs=1e-6)
    assert exact == pytest.approx(float(u.mass), abs=1e-9)


@pytest.mark.parametrize("delta", [0.0, -1e-3])
def test_derivative_step_must_be_positive(delta):
    with pytest.raises(InputError, match="step must be positive"):
        energy_derivative_check(base_profile(1), WeightedSet.circles([0.0]), one,
                                t=0.0, delta=delta)
