import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qblotto import DimensionError, NumericalIntegrityError
from qblotto.engine import check_norm_sq
from reference import (
    allclose,
    dagger,
    density_matrix,
    expectation,
    game_factors,
    kron,
    kron_all,
    partial_trace,
    strategy_gate,
)

I2 = np.eye(2, dtype=complex)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return density_matrix(psi)


def test_game_factors():
    assert game_factors(3, 2) == (2, 2, 2, 2)
    assert game_factors(2, 5) == (2, 2, 5)


class TestKron:
    def test_identity(self):
        assert allclose(kron(I2, I2), np.eye(4), 0.0)

    def test_projector_product(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert allclose(kron(a, b), np.diag([0.0, 1.0, 0.0, 0.0]), 0.0)

    def test_against_index_loops(self):
        # independent oracle: expand entry by entry from the definition
        rotation = strategy_gate(math.pi / 4)
        projector = np.diag([1.0, 0.0]).astype(complex)  # first of 2 battlefields
        got = kron(rotation, projector)
        expected = np.zeros((4, 4), dtype=complex)
        for i1 in range(2):
            for j1 in range(2):
                for i2 in range(2):
                    for j2 in range(2):
                        expected[2 * i1 + i2, 2 * j1 + j2] = (
                            rotation[i1, j1] * projector[i2, j2]
                        )
        assert got.shape == (4, 4)
        assert allclose(got, expected, 0.0)

    def test_kron_all(self):
        parts = [I2, np.diag([1.0, 2.0]), np.eye(3)]
        assert allclose(kron_all(parts), kron(kron(I2, parts[1]), parts[2]), 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        assert allclose(kron(kron(a, b), c), kron(a, kron(b, c)), 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
    def test_kron_of_unitaries_is_unitary(self, seed, da, db):
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, da)
        v = random_unitary(rng, db)
        w = kron(u, v)
        assert allclose(dagger(w) @ w, np.eye(da * db), 1e-12)


class TestDagger:
    def test_identity(self):
        assert allclose(dagger(np.eye(3)), np.eye(3), 0.0)

    def test_real_antisymmetric(self):
        flip = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert allclose(dagger(flip), np.array([[0.0, -1.0], [1.0, 0.0]]), 0.0)

    def test_strategy_gate_unitarity(self):
        gate = strategy_gate(0.3, 1.1)
        assert allclose(gate @ dagger(gate), I2, 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_involution_and_antihomomorphism(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert allclose(dagger(dagger(a)), a, 0.0)
        assert allclose(dagger(a @ b), dagger(b) @ dagger(a), 1e-12)


class TestPartialTrace:
    def test_product_state(self):
        rho = density_matrix(np.array([1, 0, 0, 0], dtype=complex))  # |00><00|
        reduced = partial_trace(rho, (2, 2), keep={2})
        assert allclose(reduced, np.diag([1.0, 0.0]), 0.0)

    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        reduced = partial_trace(density_matrix(bell), (2, 2), keep={1})
        assert allclose(reduced, I2 / 2, 1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 12)
        for keep in ({1}, {2}, {1, 2}):
            reduced = partial_trace(rho, (2, 6), keep)
            assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12

    def test_keep_all_and_none(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 8)
        factors = game_factors(2, 2)
        assert allclose(partial_trace(rho, factors, keep={1, 2, 3}), rho, 0.0)
        scalar = partial_trace(rho, factors, keep=set())
        assert scalar.shape == (1, 1)
        assert abs(scalar[0, 0] - np.trace(rho)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_product_factorization(self, seed):
        # tracing the second factor of rho1 x rho2 returns rho1 * tr(rho2)
        rng = np.random.default_rng(seed)
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 3) * rng.uniform(0.2, 2.0)
        product = np.kron(rho1, rho2)
        reduced = partial_trace(product, (2, 3), keep={1})
        assert allclose(reduced, rho1 * np.trace(rho2), 1e-12)

    def test_dimension_mismatch_reports_dims(self):
        rho = np.eye(5, dtype=complex)
        with pytest.raises(DimensionError, match=r"expected dims \(4, 4\)"):
            partial_trace(rho, (2, 2), keep={1})

    def test_bad_keep_index(self):
        rho = np.eye(4, dtype=complex)
        with pytest.raises(DimensionError):
            partial_trace(rho, (2, 2), keep={3})


class TestExpectation:
    def test_identity_on_unit_trace(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 6)
        assert expectation(np.eye(6), rho) == pytest.approx(1.0, abs=1e-12)

    def test_two_route_equality(self):
        # padding an observable with identities on the full state must agree
        # with measuring on the reduced state
        rng = np.random.default_rng(9)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        rho = density_matrix(psi)
        observable = kron(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))

        reduced = partial_trace(rho, game_factors(3, 2), keep={2, 4})
        via_reduced = expectation(observable, reduced)
        padded = kron_all([I2, np.diag([0.0, 1.0]), I2, np.diag([1.0, 0.0])])
        via_full = expectation(padded, rho)
        assert abs(via_reduced - via_full) < 1e-12

    def test_imaginary_residue_rejected(self):
        rho = density_matrix(np.array([1, 1j], dtype=complex) / math.sqrt(2))
        lowering = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NumericalIntegrityError, match="imaginary"):
            expectation(lowering, rho)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            expectation(np.eye(2), np.eye(3))


def test_check_norm_sq():
    check_norm_sq(1.0)
    check_norm_sq(1.0 - 5e-11)
    with pytest.raises(NumericalIntegrityError) as raised:
        check_norm_sq(1.25)
    assert str(raised.value) == (
        "state vector norm^2 = 1.25 deviates from 1 beyond 1e-10"
    )
    with pytest.raises(NumericalIntegrityError, match="= nan "):
        check_norm_sq(math.nan)


def test_allclose_shapes_differ():
    assert not allclose(np.eye(2), np.eye(3))
