"""Lattice geometry, interaction certificates, and builtin models."""
import warnings

import numpy as np
import pytest

from correlab import (Lattice, chain_lattice, grid_lattice, ball,
                      certify_locality,
                      nearest_neighbor_pairs,
                      transverse_field_ising, heisenberg_xxz,
                      random_bond_ising, build_model, Interaction)
from correlab.lattice import _HERM_TILE, _hermitian_part
from correlab.operators import PAULI_X, PAULI_Z


# ---------------------------------------------------------------------------
# metric validation
# ---------------------------------------------------------------------------

def test_chain_metric():
    lat = chain_lattice(5, spacing=0.5)
    assert lat.sites == (0, 1, 2, 3, 4)
    assert lat.distance(0, 4) == 2.0
    assert lat.distance(2, 2) == 0.0
    assert lat.set_distance([0, 1], [3, 4]) == 1.0
    assert lat.diameter([0, 4]) == 2.0


def test_grid_metric_is_manhattan():
    lat = grid_lattice(3, 2)
    assert lat.distance((0, 0), (2, 1)) == 3.0
    assert lat.distance((1, 0), (1, 1)) == 1.0


def test_rejects_asymmetric_metric():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        Lattice((0, 1), d, (2, 2))


def test_rejects_triangle_violation():
    d = np.array([[0.0, 1.0, 5.0],
                  [1.0, 0.0, 1.0],
                  [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        Lattice((0, 1, 2), d, (2, 2, 2))


def test_rejects_zero_distance_between_distinct_sites():
    d = np.zeros((2, 2))
    with pytest.raises(ValueError, match="positive"):
        Lattice((0, 1), d, (2, 2))


def qutrit_chain(n):
    """chain_lattice(n)'s sites and metric with three levels per site."""
    chain = chain_lattice(n)
    return Lattice(chain.sites, chain.distances, (3,) * n)


def test_sort_sites_and_window_dim():
    lat = qutrit_chain(4)
    assert lat.sort_sites([2, 0]) == (0, 2)
    assert lat.window_dim([0, 2]) == 9


# ---------------------------------------------------------------------------
# balls and shells (strict-inequality convention)
# ---------------------------------------------------------------------------

def test_ball_uses_strict_inequality():
    lat = chain_lattice(9)
    # radius 2.5 around site 4 keeps distances 0, 1, 2 but not 3
    assert ball(lat, [4], 2.5) == (2, 3, 4, 5, 6)
    # integer radius: the boundary at distance exactly r is excluded
    assert ball(lat, [4], 2.0) == (3, 4, 5)
    # radius 0 is just the set itself
    assert ball(lat, [4], 0.0) == (4,)


def test_ball_of_a_set():
    lat = chain_lattice(6)
    assert ball(lat, [1, 4], 1.5) == (0, 1, 2, 3, 4, 5)


def test_ball_takes_a_collection_of_sites():
    # a grid site is itself a tuple, and was read as the sites 0 and 1
    assert ball(grid_lattice(2, 3), [(0, 1)], 1.5) == (
        (0, 0), (0, 1), (0, 2), (1, 1))
    with pytest.raises(TypeError):
        ball(chain_lattice(5), 2, 1.0)


# ---------------------------------------------------------------------------
# interactions and locality certificates
# ---------------------------------------------------------------------------

def test_tfim_terms():
    lat = chain_lattice(3)
    inter = transverse_field_ising(lat, J=1.0, h=0.5)
    zz = np.kron(PAULI_Z, PAULI_Z)
    assert np.allclose(inter.terms[(0, 1)], -1.0 * zz)
    assert np.allclose(inter.terms[(2,)], -0.5 * PAULI_X)


def test_tfim_zero_couplings_are_omitted():
    lat = chain_lattice(3)
    inter = transverse_field_ising(lat, J=1.0, h=0.0)
    assert all(len(sup) == 2 for sup in inter.terms)
    inter2 = transverse_field_ising(lat, J=0.0, h=1.0)
    assert all(len(sup) == 1 for sup in inter2.terms)


def test_interaction_rejects_nonhermitian_term():
    lat = chain_lattice(2)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        Interaction(lat, {(0,): bad})


@pytest.mark.parametrize("term", [
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    # asymmetry 5e-15 against max|m| = 1e-3: outside 1e-12 relative
    np.array([[1e-3, 5e-15], [0.0, -1e-3]]),
], ids=["nan", "small-scale"])
def test_interaction_uses_the_relative_hermiticity_rule(term):
    with pytest.raises(ValueError, match="Hermitian"):
        Interaction(chain_lattice(2), {(0,): term})


@pytest.mark.parametrize("dim", [5, 2 * _HERM_TILE + 44])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_hermitian_part_over_tiles_is_bit_identical(dim, kind):
    # sizes that are not a multiple of the tile edge leave ragged tiles
    rng = np.random.default_rng(dim)
    d = rng.normal(size=(dim, dim))
    if kind == "complex":
        d = d + 1j * rng.normal(size=(dim, dim))
    ref = (d + d.conj().T) / 2
    out = _hermitian_part(d)
    assert out is d
    assert np.array_equal(out, ref)
    assert np.array_equal(out, out.conj().T)


def test_locality_certificate_tfim_frozen_values():
    # J = h = 1, mu = 1: an interior site sees the field term (norm 1,
    # size 1, diameter 0) and two bond terms (norm 1, size 2, diameter 1),
    # so its sum is 1 + 4e and the velocity is 2 (1 + 4e).
    lat = chain_lattice(10)
    cert = certify_locality(transverse_field_ising(lat, J=1.0, h=1.0), 1.0)
    interior = 1.0 + 4.0 * np.e
    assert abs(max(cert.site_sums.values()) - interior) < 1e-12
    assert abs(cert.velocity - 2.0 * interior) < 1e-12


def test_locality_sweep_velocity_grows_with_mu():
    lat = chain_lattice(6)
    inter = transverse_field_ising(lat)
    vs = [certify_locality(inter, mu).velocity for mu in (0.5, 1.0, 2.0)]
    assert vs[0] < vs[1] < vs[2]


@pytest.mark.parametrize("mu", [709.0, 800.0])
def test_certify_locality_refuses_an_overflowing_velocity(mu):
    # e^{800} overflows; at mu = 709 e^{mu} is finite but an interior
    # site's sum of two bond weights is not.  Every envelope on such a
    # velocity would be NaN and no row could back a prefactor
    inter = transverse_field_ising(chain_lattice(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="velocity overflows"):
            certify_locality(inter, mu)
    assert np.isfinite(certify_locality(inter, 700.0).velocity)


def test_nearest_neighbor_pairs_chain():
    lat = chain_lattice(4)
    assert nearest_neighbor_pairs(lat) == [(0, 1), (1, 2), (2, 3)]


# ---------------------------------------------------------------------------
# builtin models
# ---------------------------------------------------------------------------

def test_heisenberg_terms_hermitian_and_counted():
    lat = chain_lattice(4)
    inter = heisenberg_xxz(lat, J=1.0, delta=0.5, h=0.2)
    assert len(inter.terms) == 3 + 4  # bonds + fields
    for m in inter.terms.values():
        assert np.allclose(m, m.conj().T)


def test_random_bond_ising_deterministic_and_in_range():
    lat = chain_lattice(5)
    a = random_bond_ising(lat, J=1.0, h=1.0, seed=3)
    b = random_bond_ising(lat, J=1.0, h=1.0, seed=3)
    c = random_bond_ising(lat, J=1.0, h=1.0, seed=4)
    for sup in a.terms:
        assert np.allclose(a.terms[sup], b.terms[sup])
    assert any(not np.allclose(a.terms[s], c.terms[s]) for s in a.terms
               if len(s) == 2)
    zz = np.kron(PAULI_Z, PAULI_Z)
    for sup, m in a.terms.items():
        if len(sup) == 2:
            coeff = -m[0, 0].real  # -J_i zz has J_i in the corner
            assert 0.5 <= coeff <= 1.5
            assert np.allclose(m, -coeff * zz)


@pytest.mark.parametrize("model", [transverse_field_ising, heisenberg_xxz,
                                   random_bond_ising])
def test_one_site_chain_gets_its_field_and_no_bond(model):
    inter = model(chain_lattice(1), h=2.0)
    field = PAULI_Z if model is heisenberg_xxz else PAULI_X
    assert list(inter.terms) == [(0,)]
    assert np.array_equal(inter.terms[(0,)], -2.0 * field)


@pytest.mark.parametrize("model", [transverse_field_ising, heisenberg_xxz,
                                   random_bond_ising])
def test_builtin_models_refuse_a_qutrit_lattice(model):
    with pytest.raises(ValueError, match=f"model '{model.__name__}' is "
                                         "defined for qubit lattices only"):
        model(qutrit_chain(3))


def test_heisenberg_zero_bond_is_omitted():
    inter = heisenberg_xxz(chain_lattice(3), J=0.0, delta=0.0, h=0.5)
    assert list(inter.terms) == [(0,), (1,), (2,)]
    assert heisenberg_xxz(chain_lattice(3), J=0.0, delta=1.0).terms


@pytest.mark.parametrize("lat", [chain_lattice(6), grid_lattice(3, 3)],
                         ids=["chain", "grid"])
def test_random_bond_ising_draws_one_scale_per_pair_in_pair_order(lat):
    # one draw per nearest-neighbor pair, in canonical pair order, from the
    # seeded default generator: -J * Uniform(0.5, 1.5) * ZZ to the bit
    rng = np.random.default_rng(7)
    zz = np.kron(PAULI_Z, PAULI_Z)
    inter = random_bond_ising(lat, J=1.3, h=0.0, seed=7)
    pairs = nearest_neighbor_pairs(lat)
    assert list(inter.terms) == pairs
    for pair in pairs:
        assert np.array_equal(inter.terms[pair],
                              -1.3 * rng.uniform(0.5, 1.5) * zz)


def test_build_model_rejects_unknown_parameter():
    lat = chain_lattice(3)
    with pytest.raises(ValueError, match="does not accept"):
        build_model("transverse_field_ising", lat, J=1.0, gamma=2.0)
    with pytest.raises(ValueError, match="unknown model"):
        build_model("nonsense", lat)
