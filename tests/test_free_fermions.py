"""Both solvers held to closed-form spectra of every momentum sector.

On the integrable line alpha = 0 those are the free-fermion levels, and on
the line lam = 0, where H is diagonal in the sx basis, the classical
necklace levels.
"""

import numpy as np
import pytest

from isingchaos import cli
from isingchaos.eigensolve import block_spectra, diagonalize, solved_momentum
from isingchaos.hamiltonian import ModelParams, sector_elements
from isingchaos.spin_basis import momentum_basis
from oracles import free_fermion_levels, necklace_levels

# odd and even chains, both sides of the critical field and a negative one
CHAINS = [(4, 0.6), (5, 1.2), (6, 0.7), (7, -1.3), (8, 1.3), (9, 0.5), (10, 0.9), (11, 1.1), (12, 0.8)]


def _free_fermions(n_sites, lam, k):
    return np.sort(np.concatenate(list(free_fermion_levels(n_sites, lam, k).values())))


def _check_sector(params, k, want):
    basis = momentum_basis(params.n_sites, k)
    elements = sector_elements(basis, params)
    spectra = np.sort(np.concatenate(list(block_spectra(basis, elements).values())))
    assert spectra.shape == want.shape == (basis.dim,)
    assert np.max(np.abs(spectra - want)) < 1e-10, k
    assert np.max(np.abs(diagonalize(basis, elements, params).energies - want)) < 1e-10, k


@pytest.mark.parametrize("n_sites,lam", CHAINS)
def test_every_sector_matches_the_free_fermions(n_sites, lam):
    for k in range(n_sites):
        _check_sector(ModelParams(n_sites, lam, 0.0), k, _free_fermions(n_sites, lam, k))


@pytest.mark.parametrize("k", [0, 3])
def test_sectors_beyond_the_full_basis_oracle_match_the_free_fermions(k):
    _check_sector(ModelParams(14, 0.8, 0.0), k, _free_fermions(14, 0.8, k))


def test_a_sector_past_the_dense_references_matches_the_free_fermions():
    # N = 16, k = 0 (dimension 4116): the values-only solver alone, which takes about 2 s
    basis = momentum_basis(16, 0)
    spectra = block_spectra(basis, sector_elements(basis, ModelParams(16, 0.8, 0.0)))
    got = np.sort(np.concatenate(list(spectra.values())))
    assert np.max(np.abs(got - _free_fermions(16, 0.8, 0))) < 1e-10


@pytest.mark.parametrize("alpha", [0.0, 0.7, -1.3])
@pytest.mark.parametrize("n_sites", range(4, 13))
def test_every_sector_matches_the_necklaces(n_sites, alpha):
    for k in range(n_sites):
        _check_sector(ModelParams(n_sites, 0.0, alpha), k, necklace_levels(n_sites, alpha, k))


@pytest.mark.parametrize("n_sites,lam", [(9, 0.5), (10, 0.9)])
def test_spacing_z_parity_labels_are_the_fermion_number_parity(capsys, monkeypatch, n_sites, lam):
    solved = []

    def recording(basis, elements, row_labels=None):
        spectra = block_spectra(basis, elements, row_labels)
        solved.append((basis.k, spectra))
        return spectra

    monkeypatch.setattr(cli, "block_spectra", recording)
    argv = ["spacing", "--spins", str(n_sites), "--lambda", str(lam), "--alpha", "0", "--momentum", "all"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    # spacing solves k <= N/2 once each and prints sector N - k from the spectra of k,
    # so every sector's z blocks are held to that sector's own free-fermion levels
    assert [k for k, _ in solved] == list(range(n_sites // 2 + 1))
    by_sector = dict(solved)
    for k in range(n_sites):
        spectra = by_sector[solved_momentum(n_sites, k)]
        levels = free_fermion_levels(n_sites, lam, k)
        for z in (1, -1):
            got = np.sort(np.concatenate([e for (label, _), e in spectra.items() if label == z] or [np.empty(0)]))
            assert got.shape == levels[z].shape, (k, z)
            assert np.max(np.abs(got - levels[z]), initial=0.0) < 1e-10, (k, z)
