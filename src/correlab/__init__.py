"""correlab: a desk-scale numerical laboratory for quantum spin lattices.

Certified short-range interactions, finite-volume Gibbs states, thermal
correlation functions with their KMS analytic structure, Lieb-Robinson
commutator scans, local approximants, and a contour-decomposition
verification pipeline, all on lattices small enough to diagonalize exactly.
"""

__version__ = "0.1.0"

from .lattice import (Lattice, chain_lattice, grid_lattice, ball,
                      Interaction, LocalityCertificate, certify_locality,
                      nearest_neighbor_pairs,
                      transverse_field_ising, heisenberg_xxz,
                      random_bond_ising, build_model, BUILTIN_MODELS)
from .operators import (PAULI, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z,
                        LocalOperator, EmbeddedOperator, single_site, embed,
                        spectral_norm, commutator, partial_trace,
                        conditional_expectation, haar_unitaries,
                        sampled_twirl)
from .quadrature import gauss_legendre
from .spectral import (DIM_CAP, SpectralDecomposition, eig_hermitian,
                       build_hamiltonian, derivation_delta)
from .thermal import (ThermalState, gibbs_state, KMSFunction, kms_function,
                      ordinary_correlator, canonical_correlator)
from .dynamics import (EvolutionContext, evolution_context, evolve,
                       LRMeasurement, LRScanResult, lr_commutator_scan,
                       LocalityMeasurement, LocalityScanResult, locality_scan)
from .verify import (weight, ResidueCheck, residue_identity,
                     ContourGrid, contour_grid, ContourDecomposition,
                     contour_decomposition, DecayFit,
                     fit_decay, TheoremRow, TheoremCheckResult, theorem_check)
