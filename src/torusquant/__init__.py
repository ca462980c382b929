"""Exact quantization data for symplectic tori in rational real polarizations.

The package computes, exactly or to controlled floating tolerance, the finite
objects attached to a symplectic torus at an even level k: adapted lattice
bases, Bohr-Sommerfeld labels and intersection points, the unitary pairing
matrices between polarizations (with their Maslov-phase corrections), the
Maslov-Kashiwara indices, and the finite Heisenberg / integer symplectic /
integer metaplectic group actions on the quantization.
"""

from .errors import (
    BaseMismatch,
    BasesNotPairAdapted,
    BasisMismatch,
    DimensionMismatch,
    FrameMismatch,
    NotIsotropic,
    NotPrimitive,
    NotSymmetric,
    NotTransverse,
    NotUnimodular,
    OddModulus,
    SingularMatrix,
    SpaceMismatch,
    TooLarge,
    TorusQuantError,
    TransverseInput,
)
from .exact import (
    PhaseSum,
    Signature,
    UnitPhase,
    coset_reps,
    gauss_reciprocity_check,
    hnf,
    signature,
    snf,
)
from .lattice import (
    AdaptedBasis,
    Lagrangian,
    SymplecticSpace,
    adapted_basis,
    intersect,
    pair_adapted_bases,
)
from .maslov import (
    LagrangianLift,
    MpElement,
    SpElement,
    maslov_index,
    mp_act,
    mp_generator,
    mp_inv,
    mp_mul,
    triple_index,
    triple_index_transverse,
)
from .quantize import (
    HilbertSpace,
    Intertwiner,
    Polarization,
    bks_matrix,
    bks_matrix_nontransverse,
    bks_matrix_transverse,
    corrected_intertwiner,
    frame_potential,
    intersection_points,
    rebase_unitary,
    unitarity_defect,
)
from .representations import (
    HeisenbergElement,
    heisenberg_identity,
    heisenberg_in_frame,
    heisenberg_matrix,
    heisenberg_mul,
    mp_operator,
    sp_operator,
    sp_pushforward,
)

__version__ = "0.1.0"
