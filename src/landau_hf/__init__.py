"""Finite-volume magnetic fermion simulator.

Builds the orthonormal level basis of a charged particle on a flux-quantized
box, assembles the interacting N-fermion problem over Slater determinants,
integrates both the exact and the effective (mean-field plus exchange)
dynamics, and verifies conservation laws and trajectory error bounds.
"""

__version__ = "0.1.0"

from .config import (DomainConfig, Grid, PhysicalConstants, SimulationConfig,
                     inner_product, load_config, parse_config)
from .potentials import PotentialSpec
from .basis import (OrbitalField, OrbitalSet, apply_landau_hamiltonian,
                    basis_report, boundary_residuals, build_orbital_set,
                    check_magnetic_bc, finite_volume_orbital, hermite_function,
                    infinite_volume_orbital, landau_level, lattice_profiles,
                    magnetic_translate)
from .manybody import (DeterminantBasis, FillingSpec, InteractionTensor,
                       ManyBodyState, assemble_hamiltonian, embed_slater,
                       embed_wedge, enumerate_determinants, evolve_exact,
                       noninteracting_ground_state, slater_overlap,
                       two_body_tensor)
from .hartree_fock import (HFState, HFTrajectory, gauge_transform, hf_energy,
                           hf_rhs, hf_steps, integrate_hf)
from .analysis import (ComparisonRecord, ScalingConfig, apriori_bound,
                       defect_norm, error_norm, rdm_exact, rdm_slater,
                       rescale_mean_field, run_comparison, trace_norm_diff)
