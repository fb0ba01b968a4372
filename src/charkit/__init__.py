"""charkit: exact Fourier analysis on Z_p**d and Z_{p**l}**d.

Cyclotomic-exact spectra, hyperplane wavelets and their decompositions,
bandwidth analytics, tomography from hyperplane masses, eigenfunctions of
the transform, multi-scale wavelets over prime-power moduli, and a
verification harness for all of it.
"""

from .bandwidth import (
    BandwidthReport,
    bandwidth,
    classify_small_cbw_set,
    constancy_from_compass,
    equidistribution_check,
    inverse_phi,
    uncertainty_check,
    vanishing_certificate,
)
from .eigen import (
    EigenPair,
    affine_eigenfunction_pair,
    eigen_expand,
    eigenfunction_pair,
    enumerate_lagrangian,
    self_dual_classify,
)
from .errors import (
    CapacityError,
    CharkitError,
    DataFormatError,
    HypothesisNotMet,
    SinogramError,
    TheoremViolation,
)
from .fourier import (
    GridFunction,
    convolve,
    forward,
    forward_naive,
    inverse,
    phase,
    set_spectrum,
    transform_affine,
    transform_subspace,
    vanishes_on,
)
from .geometry import (
    AffineSubspace,
    Ambient,
    ProjectiveLine,
    Subspace,
    avoid_lines_subspace,
    enumerate_lines,
    enumerate_subspaces,
    hyperplane_points,
    is_compass_set,
    line_through,
    perp,
    quadratic_class,
    sqrt_minus_one,
    valuation,
    vector_valuation,
)
from .multiscale import (
    is_level_l_wavelet,
    multiscale_decompose,
    norm,
    unit_count,
)
from .scalars import Cyclotomic, complex_close, is_zero, rational_part
from .varieties import (
    check_paraboloid_theorem,
    classify_direction_paraboloid,
    is_good,
    isotropic_cone,
    paraboloid_points,
    slice_last,
    sphere_count,
    sphere_equidistribution_check,
    sphere_points,
    two_circle_analysis,
)
from .wavelets import (
    Decomposition,
    MassTable,
    Wavelet,
    associated_wavelet,
    decompose,
    is_wavelet,
    mass_table,
    masses,
    reconstruct_from_masses,
)

__version__ = "0.1.0"
