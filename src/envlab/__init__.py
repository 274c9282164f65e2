"""Numerical laboratory for constrained convex envelopes, partial Bergman
measures, and equilibrium energies on radial and toric model geometries."""

from .profiles import (
    ConvexProfile,
    WeightedSet,
    base_profile,
    lelong,
    mix_profiles,
    sup_difference,
)
from .envelopes import (
    i_model_envelope,
    window_envelope,
    weighted_envelope,
    divergence,
    contact_leakage,
)
from .measures import (
    RadialMeasure,
    ma_measure,
    fs_measure,
    annulus_area_measure,
    circle_atom,
    kolmogorov_distance,
    measure_integral,
)
from .sections import (
    SectionBasisData,
    BergmanResult,
    admissible_indices,
    admissible_set,
    h0,
    limit_mass,
    section_basis,
    reference_basis,
    bergman,
    donaldson,
    donaldson_functional,
    bm_rate,
    bergman_approximant,
    approximant_lower_bound_constant,
)
from .energy import (
    ma_energy,
    equilibrium_energy,
    energy_derivative_check,
)
from .toric import (
    TorusProfile2,
    RationalPolygon,
    h0_toric,
)

__version__ = "0.1.0"
