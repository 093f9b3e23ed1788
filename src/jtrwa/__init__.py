"""Numeric spectral toolkit for the E(x)e vibronic model.

Builds the truncated two-mode, spin-1/2 Hilbert space, assembles the full
Hamiltonian and its rotating-wave / rotated / imaginary-coupling variants,
realizes the decoupling similarity transform numerically, reproduces the
published benchmark energies, and verifies the pseudo-Hermiticity
structure of the non-Hermitian variant.
"""

from .fockspace import (
    Basis,
    BasisSpec,
    Hermiticity,
    OperatorMatrix,
    SPIN_DOWN,
    SPIN_UP,
    Truncation,
    boson_ops,
    interior_projector,
    make_basis,
    pauli_ops,
)
from .models import (
    ModelParams,
    ResonanceError,
    build_full_jt,
    build_nonhermitian,
    build_rotated,
    build_rwa,
    build_second_order,
    conserved_excitation_op,
    spin_ladder_detunings,
)
from .pseudoherm import (
    RealityReport,
    check_combined_symmetry,
    check_pseudo_hermitian,
    check_pt,
    conjugation_closure,
    parity_op,
    pt_transform,
    reality_scan,
)
from .spectra import (
    BlockSolution,
    Branch,
    RwaLevel,
    Spectrum,
    assemble_eigenstate,
    benchmark_rwa_energy,
    block_solve,
    converge_ground,
    diagonalize,
    rwa_energy,
    rwa_level_ladder,
    total_number_schedule,
)
from .transforms import (
    TransformReport,
    conjugate,
    decoupling_generator,
    mode_rotation,
    residual_study,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BasisSpec",
    "BlockSolution",
    "Branch",
    "Hermiticity",
    "ModelParams",
    "OperatorMatrix",
    "RealityReport",
    "ResonanceError",
    "RwaLevel",
    "SPIN_DOWN",
    "SPIN_UP",
    "Spectrum",
    "TransformReport",
    "Truncation",
    "assemble_eigenstate",
    "benchmark_rwa_energy",
    "block_solve",
    "boson_ops",
    "build_full_jt",
    "build_nonhermitian",
    "build_rotated",
    "build_rwa",
    "build_second_order",
    "check_combined_symmetry",
    "check_pseudo_hermitian",
    "check_pt",
    "conjugate",
    "conjugation_closure",
    "conserved_excitation_op",
    "converge_ground",
    "decoupling_generator",
    "diagonalize",
    "interior_projector",
    "make_basis",
    "mode_rotation",
    "parity_op",
    "pauli_ops",
    "pt_transform",
    "reality_scan",
    "residual_study",
    "rwa_energy",
    "rwa_level_ladder",
    "spin_ladder_detunings",
    "total_number_schedule",
]
