import numpy as np
import pytest

from gpdwell.eigensolver import lowest_eigenpairs
from gpdwell.grid import TrapConfig, make_grid, potential
from gpdwell.hamiltonian import TridiagonalOperator, assemble_block, block_vector, unfold

from oracles import (
    assemble,
    block_operator,
    dense,
    fold,
    kinetic_operator,
    tridiag_eigenvalue_bisection,
)


class TestKineticOperator:
    def test_unit_spacing_entries(self):
        grid = make_grid(5.0, 10)  # delta = 1
        op = kinetic_operator(grid)
        assert np.all(op.diag == 1.0)
        assert np.all(op.offdiag == -0.5)
        assert op.size == grid.D - 1

    def test_annihilates_linear_functions(self):
        grid = make_grid(3.0, 60)
        op = kinetic_operator(grid)
        psi = 2.0 * grid.nodes + 1.0
        out = op.apply(psi[1:-1])
        # away from the walls the stencil sees only the linear ramp
        np.testing.assert_allclose(out[1:-1], 0.0, atol=1e-11)

    def test_exact_on_quadratics(self):
        grid = make_grid(3.0, 60)
        op = kinetic_operator(grid)
        out = op.apply(grid.nodes[1:-1] ** 2)
        # -(1/2) * psi'' = -1 for psi = x^2
        np.testing.assert_allclose(out[1:-1], -1.0, atol=1e-10)


class TestAssemble:
    def test_beta_zero_ignores_density(self):
        grid = make_grid(4.0, 40)
        trap = TrapConfig(a=2.0, beta=0.0)
        op1 = assemble(grid, trap, np.zeros(grid.D - 1))
        op2 = assemble(grid, trap, np.random.default_rng(0).random(grid.D - 1))
        np.testing.assert_array_equal(op1.diag, op2.diag)
        np.testing.assert_array_equal(op1.offdiag, op2.offdiag)

    def test_zero_density_any_beta(self):
        grid = make_grid(4.0, 40)
        op_a = assemble(grid, TrapConfig(a=2.0, beta=3.0), np.zeros(grid.D - 1))
        op_b = assemble(grid, TrapConfig(a=2.0, beta=0.0), np.zeros(grid.D - 1))
        np.testing.assert_array_equal(op_a.diag, op_b.diag)

    def test_diagonal_at_origin(self):
        grid = make_grid(4.0, 40)
        x = grid.interior
        dens = np.exp(-(x**2))
        dens /= grid.delta * dens.sum()
        op = assemble(grid, TrapConfig(a=2.0, beta=1.0), dens)
        mid = grid.D // 2 - 1  # interior index of x = 0
        assert op.diag[mid] == pytest.approx(1.0 / grid.delta**2 + dens[mid])

    def test_rejects_negative_density(self):
        grid = make_grid(4.0, 40)
        dens = np.zeros(grid.D - 1)
        dens[3] = -1e-9
        with pytest.raises(ValueError, match="nonnegative"):
            assemble(grid, TrapConfig(a=2.0, beta=1.0), dens)

    def test_rejects_wrong_length(self):
        grid = make_grid(4.0, 40)
        with pytest.raises(ValueError):
            assemble(grid, TrapConfig(a=2.0), np.zeros(grid.D))
        for length in (3, 5):
            with pytest.raises(ValueError, match="offdiag"):
                TridiagonalOperator(diag=np.zeros(5), offdiag=np.zeros(length))

    def test_dense_form_is_symmetric(self):
        grid = make_grid(2.0, 12)
        dens = np.linspace(0, 1, grid.D - 1)
        m = dense(assemble(grid, TrapConfig(a=1.5, beta=0.4), dens))
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_allclose(
            np.diag(m),
            1.0 / grid.delta**2 + potential(grid.interior, 1.5) + 0.4 * dens,
        )

    def test_beta_monotonicity_of_diagonal(self):
        grid = make_grid(4.0, 40)
        dens = np.abs(np.sin(grid.interior))
        d0 = assemble(grid, TrapConfig(a=2.0, beta=0.2), dens).diag
        d1 = assemble(grid, TrapConfig(a=2.0, beta=0.7), dens).diag
        assert np.all(d1 >= d0)


def _sector_basis(size: int, parity: int) -> np.ndarray:
    """Columns e_0 = u_0 (even only) and e_m = (u_{+m} +- u_{-m})/sqrt(2), dense."""
    c = size // 2
    sign = 1.0 if parity == 0 else -1.0
    cols = [] if parity else [np.eye(size)[c]]
    for m in range(1, c + 1):
        col = np.zeros(size)
        col[c + m], col[c - m] = 1.0 / np.sqrt(2.0), sign / np.sqrt(2.0)
        cols.append(col)
    return np.column_stack(cols)


def _values(op, k, grid):
    return [p.value for p in lowest_eigenpairs(op, k, grid)]


class TestParitySectors:
    def test_block_spectra_interleave_to_full_spectrum(self):
        grid = make_grid(6.0, 800)
        trap = TrapConfig(a=3.0, beta=0.0)
        op = assemble(grid, trap, np.zeros(grid.D - 1))
        even = _values(assemble_block(grid, trap.a, 0), 3, grid)
        odd = _values(assemble_block(grid, trap.a, 1), 3, grid)
        sectors = [value for pair in zip(even, odd) for value in pair]
        full = _values(op, 6, grid)
        assert sectors == pytest.approx(full, rel=0, abs=1e-12)
        for n, value in enumerate(sectors):
            oracle = tridiag_eigenvalue_bisection(op.diag, op.offdiag, n)
            assert value == pytest.approx(oracle, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_unfold_is_exactly_symmetric_and_keeps_norm(self, parity):
        grid = make_grid(4.0, 40)
        size = grid.D // 2 - parity
        w = np.random.default_rng(parity).standard_normal(size)
        v = unfold(w, parity)
        assert v.shape == (grid.D - 1,)
        assert np.array_equal(v, v[::-1] if parity == 0 else -v[::-1])
        assert grid.delta * np.dot(v, v) == pytest.approx(grid.delta * np.dot(w, w), rel=1e-14)
        np.testing.assert_allclose(v, _sector_basis(grid.D - 1, parity) @ w, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_block_vector_inverts_unfold(self, parity):
        grid = make_grid(4.0, 40)
        w = np.random.default_rng(parity + 4).standard_normal(grid.D // 2 - parity)
        v = unfold(w, parity)
        back = block_vector(v, parity)
        assert back.shape == w.shape
        np.testing.assert_allclose(back, w, rtol=2 * np.finfo(float).eps, atol=0)
        np.testing.assert_allclose(unfold(block_vector(v, parity), parity), v,
                                   rtol=2 * np.finfo(float).eps, atol=0)
        np.testing.assert_allclose(back, _sector_basis(grid.D - 1, parity).T @ v,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_fold_keeps_the_even_part_and_block_densities(self, parity):
        grid = make_grid(4.0, 40)
        rho = np.random.default_rng(parity).random(grid.D - 1)
        assert np.array_equal(fold(rho, parity), fold(rho[::-1], parity))
        if parity == 0:
            assert fold(rho, 0).sum() == pytest.approx(rho.sum(), rel=1e-14)
        w = np.random.default_rng(parity + 2).standard_normal(grid.D // 2 - parity)
        np.testing.assert_allclose(fold(unfold(w, parity) ** 2, parity), w * w, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_block_of_non_even_operator_is_the_compression(self, parity):
        grid = make_grid(2.0, 12)
        trap = TrapConfig(a=2.0, beta=0.5)
        rng = np.random.default_rng(7)
        for rho in (np.exp(-grid.interior**2), rng.random(grid.D - 1)):  # even, then not
            op = assemble(grid, trap, rho)
            p = _sector_basis(op.size, parity)
            np.testing.assert_allclose(
                dense(block_operator(grid, trap, fold(rho, parity), parity)),
                p.T @ dense(op) @ p,
                rtol=0, atol=1e-14,
            )

    def test_even_operator_blocks_are_the_half_grid_bitwise(self):
        grid = make_grid(6.0, 400)
        trap = TrapConfig(a=2.0, beta=0.5)
        rho = np.exp(-grid.interior**2)
        op = assemble(grid, trap, rho)
        c = grid.D // 2 - 1
        even = block_operator(grid, trap, fold(rho, 0), 0)
        odd = block_operator(grid, trap, fold(rho, 1), 1)
        assert np.array_equal(even.diag, op.diag[c:])
        assert even.offdiag[0] == np.sqrt(2.0) * op.offdiag[c]
        assert np.array_equal(even.offdiag[1:], op.offdiag[c + 1:])
        assert np.array_equal(odd.diag, op.diag[c + 1:])
        assert np.array_equal(odd.offdiag, op.offdiag[c + 1:])

    @pytest.mark.parametrize("a", [0.0, -1.0, np.nan, np.inf])
    def test_block_rejects_bad_well_depth(self, a):
        with pytest.raises(ValueError, match="well-depth"):
            assemble_block(make_grid(3.0, 12), a, 0)
