"""slopekit: exact Betti numbers of abelian covers and slope-dense families.

The pipeline, bottom to top:

* :mod:`slopekit.group_core` - words, presentations, Smith normal form,
  abelianization, Fox calculus, Alexander matrices;
* :mod:`slopekit.covers` - Reidemeister-Schreier presentations of kernels of
  abelian quotients, the direct route to cover Betti numbers;
* :mod:`slopekit.jumping_loci` - exact twisted cohomology at torsion
  characters, Green-Lazarsfeld scans, Hironaka's formula, and the
  coprime-order cover selector;
* :mod:`slopekit.surface_invariants` - (K^2, chi, q, p_g) of cyclic covers
  and fiber-branched double covers, slopes, geography checks;
* :mod:`slopekit.density` - convergent slope families and exact-rational
  epsilon-net certificates for the interval [8, 9];
* :mod:`slopekit.cli` - the ``slopekit`` command.
"""

from .covers import (
    AbelianEpimorphism,
    NotAnEpimorphismError,
    SubgroupPresentation,
    coset_action,
    reidemeister_schreier,
    subgroup_b1,
)
from .density import (
    ConvergenceReport,
    DensityCertificate,
    InvalidTargetError,
    NetInfeasibleError,
    TargetSlope,
    convergence_report,
    covering_radius,
    density_certificate,
    family_slope,
    sequence_params,
)
from .errors import SlopekitError
from .group_core import (
    AbelianGroupStructure,
    GroupPresentation,
    IntegerMatrix,
    LaurentPolynomial,
    MalformedWordError,
    TorsionInAbelianizationError,
    abelianization,
    abelianized_exponents,
    alexander_matrix,
    cyclic_group,
    fox_derivative,
    free_abelianization,
    free_group,
    free_reduce,
    smith_normal_form,
    surface_group,
    torus_group,
    trefoil_group,
)
from .jumping_loci import (
    CharacterDomainError,
    CoprimeCertificate,
    CoprimeCoverResult,
    CoverB1Result,
    CyclotomicNumber,
    JumpEntry,
    JumpingLocusReport,
    TorsionCharacter,
    cartwright_steger_report,
    coprime_cover_b1,
    cyclotomic_polynomial,
    evaluate_alexander_matrix,
    hironaka_b1,
    scan_jumping_loci,
    twisted_h1,
)
from .surface_invariants import (
    FamilyParams,
    FibrationProfile,
    InconsistentIrregularityError,
    NoetherViolationError,
    SlopeDomainError,
    SurfaceInvariants,
    branched_double_cover_invariants,
    cartwright_steger_profile,
    check_geography,
    cyclic_cover_invariants,
    family_invariants,
    slope,
)

__version__ = "0.1.0"
