"""Monge–Ampère energy relative to the model anchor, and its derivative.

The energy of φ against the anchor P (the I-model projection of u) is
the two-term average ∫(F_φ − F_P) d(μ_P + μ_φ)/2, defined whenever φ
shares the anchor's tail slopes so the difference is bounded.  The same
pair integral of two arguments φ₁, φ₂ is the energy difference
𝓘(φ₁) − 𝓘(φ₂) (the cocycle identity): double integration by parts has no
boundary terms when tails match.
"""

from __future__ import annotations

from .envelopes import i_model_envelope, weighted_envelope
from .errors import InputError, SingularityTypeError
from .measures import ma_measure, measure_integral
from .profiles import ConvexProfile, WeightedSet
from .quadrature import union

__all__ = [
    "ma_energy",
    "equilibrium_energy",
    "energy_derivative_check",
]


def _pair_energy(phi: ConvexProfile, psi: ConvexProfile) -> float:
    """(1/2)·[∫(F_φ − F_ψ) dμ_ψ + ∫(F_φ − F_ψ) dμ_φ] for matching tails.

    The cells of both measures break at every node of both profiles, so
    the integrand's kinks never fall inside a quadrature cell.
    """

    def diff(t):
        return phi(t) - psi(t)

    kinks = union(phi.grid, psi.grid)
    return 0.5 * (
        measure_integral(diff, ma_measure(psi), extra_breaks=kinks)
        + measure_integral(diff, ma_measure(phi), extra_breaks=kinks)
    )


def ma_energy(u: ConvexProfile, phi: ConvexProfile) -> float:
    """Relative Monge–Ampère energy of φ against the anchor P of u.

    (1/2)·[∫(F_φ − F_P) dμ_P + ∫(F_φ − F_P) dμ_φ]; raises unless φ has
    the anchor's exact tail slopes.
    """
    p = i_model_envelope(u)
    if phi.s_minus != p.s_minus or phi.s_plus != p.s_plus:
        raise SingularityTypeError(
            "argument does not share the anchor's singularity type "
            f"({phi.s_minus}, {phi.s_plus}) vs ({p.s_minus}, {p.s_plus})"
        )
    return _pair_energy(phi, p)


def equilibrium_energy(u: ConvexProfile, K: WeightedSet) -> float:
    """Energy of the weighted envelope of (K, v) in u's singularity class."""
    return ma_energy(u, weighted_envelope(u, K))


def energy_derivative_check(u: ConvexProfile, K: WeightedSet, f, t: float,
                            delta: float = 1e-3) -> tuple[float, float]:
    """(centered difference, contact-measure integral) of s ↦ 𝓘(v + s·f).

    The exact value is ∫ f dμ of the envelope at weight v + t·f; the
    finite difference uses step delta around t.
    """
    if delta <= 0:
        raise InputError("finite-difference step must be positive")
    e_plus = equilibrium_energy(u, K.add_weight(f, t + delta))
    e_minus = equilibrium_energy(u, K.add_weight(f, t - delta))
    fd = (e_plus - e_minus) / (2.0 * delta)
    env = weighted_envelope(u, K.add_weight(f, t))
    exact = measure_integral(f, ma_measure(env))
    return fd, float(exact)
