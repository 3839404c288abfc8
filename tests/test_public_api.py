"""The names the package exports."""
import types

import correlab

PUBLIC_NAMES = [
    "BUILTIN_MODELS", "ContourDecomposition", "DIM_CAP", "DecayFit",
    "EmbeddedOperator", "EvolutionContext", "Interaction", "KMSFunction",
    "LRMeasurement", "LRScanResult", "Lattice", "LocalOperator",
    "LocalityCertificate", "LocalityMeasurement", "LocalityScanResult",
    "PAULI", "PAULI_I", "PAULI_X", "PAULI_Y", "PAULI_Z", "ResidueCheck",
    "SpectralDecomposition", "TheoremCheckResult", "TheoremRow",
    "ThermalState", "ball", "build_hamiltonian", "build_model",
    "canonical_correlator", "certify_locality", "chain_lattice",
    "commutator", "conditional_expectation", "contour_decomposition",
    "derivation_delta", "eig_hermitian", "embed", "evolution_context",
    "evolve", "fit_decay", "gauss_legendre", "gibbs_state", "grid_lattice",
    "haar_unitaries", "heisenberg_xxz", "interaction_to_canonical",
    "kms_function", "locality_scan", "lr_commutator_scan",
    "nearest_neighbor_pairs", "ordinary_correlator", "partial_trace",
    "random_bond_ising", "residue_identity", "sampled_twirl", "shell_count",
    "single_site", "spectral_norm", "theorem_check",
    "transverse_field_ising", "weight",
]


def test_public_names_are_pinned():
    # submodules are attributes of the package only once imported, so they
    # are left out; any other addition or removal shows up here as a diff
    exported = sorted(name for name, value in vars(correlab).items()
                      if not name.startswith("_")
                      and not isinstance(value, types.ModuleType))
    assert exported == sorted(PUBLIC_NAMES)
