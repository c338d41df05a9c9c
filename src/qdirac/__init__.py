"""Free-particle solutions of the quaternionic Dirac equation in a real
Hilbert space, plus the numerical checks that certify them."""

from .qalg import Quaternion, mul, mul_symplectic
from .spinor import (
    FourVector,
    QSpinor4,
    ZERO_FOUR,
    gamma,
    helicity_matrix,
    slashed,
    spin_basis,
)
from .grid import SampledField, SpacetimeGrid, central_diff, integrate_spatial, sample
from .solutions import (
    CertificationError,
    ConstraintReport,
    MassiveSpec,
    MasslessThetaSpec,
    PacketSample,
    PlaneWaveSolution,
    WavePacket,
    WavePacketSpec,
    build_massive_solution,
    build_massless_theta_solution,
    build_u_spinor,
    build_wave_packet,
    check_constraints,
    certify_solution,
    dispersion_residual,
    enumerate_massive_set,
    enumerate_massless_theta0_set,
    make_wave_packet,
    mass_shell_energy,
)
from .verify import (
    ContinuityReport,
    ConvergenceReport,
    GramReport,
    HelicityReport,
    adjoint_norm,
    analytic_divergence,
    continuity_convergence,
    continuity_residual,
    current,
    dirac_residual,
    gram_matrix,
    helicity_check,
    inner_product_grid,
)

__version__ = "0.1.0"

__all__ = [
    "Quaternion", "mul", "mul_symplectic",
    "FourVector", "ZERO_FOUR", "QSpinor4", "gamma", "slashed",
    "helicity_matrix", "spin_basis",
    "SpacetimeGrid", "SampledField", "sample", "central_diff", "integrate_spatial",
    "MassiveSpec", "MasslessThetaSpec", "PlaneWaveSolution",
    "WavePacket", "WavePacketSpec", "PacketSample",
    "CertificationError", "ConstraintReport",
    "mass_shell_energy", "dispersion_residual", "build_u_spinor",
    "build_massive_solution", "enumerate_massive_set",
    "build_massless_theta_solution", "enumerate_massless_theta0_set",
    "check_constraints", "certify_solution",
    "build_wave_packet", "make_wave_packet",
    "dirac_residual", "current", "continuity_residual",
    "continuity_convergence", "inner_product_grid", "gram_matrix",
    "adjoint_norm", "helicity_check", "analytic_divergence",
    "ContinuityReport", "ConvergenceReport", "GramReport", "HelicityReport",
]
