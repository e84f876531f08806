import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from gpdwell.eigensolver import (
    EPS,
    ROUNDOFF_FLOOR,
    certified,
    count_below,
    lowest_eigenpairs,
    norm_inf,
)
from gpdwell.grid import TrapConfig, make_grid
from gpdwell.hamiltonian import TridiagonalOperator, assemble_block
from gpdwell.scf import ScfConfig, _newton

from oracles import (
    assemble,
    block_operator,
    dense,
    fold,
    kinetic_operator,
    numerov_even_eigenvalue,
    sturm_count,
    tridiag_eigenvalue_bisection,
)


def test_pure_kinetic_matches_toeplitz_closed_form():
    grid = make_grid(5.0, 100)
    op = kinetic_operator(grid)
    pairs = lowest_eigenpairs(op, op.size, grid)
    j = np.arange(1, grid.D)
    exact = (1.0 - np.cos(j * np.pi / grid.D)) / grid.delta**2
    got = np.array([p.value for p in pairs])
    np.testing.assert_allclose(got, exact, rtol=1e-10)


def test_pure_quartic_ground_state_against_numerov():
    # -psi''/2 + x^4 psi = E psi; continuum oracle by inward Numerov shooting
    grid = make_grid(6.0, 4000)
    x = grid.interior
    op = TridiagonalOperator(
        diag=kinetic_operator(grid).diag + x**4,
        offdiag=kinetic_operator(grid).offdiag,
    )
    e0 = lowest_eigenpairs(op, 1, grid)[0].value
    oracle = numerov_even_eigenvalue(lambda t: t**4, 0.3, 1.0)
    assert e0 == pytest.approx(oracle, abs=5e-4)


def test_double_well_parity_of_lowest_pair():
    grid = make_grid(6.0, 800)
    op = assemble(grid, TrapConfig(a=3.0, beta=0.0), np.zeros(grid.D - 1))
    ground, excited = lowest_eigenpairs(op, 2, grid)
    np.testing.assert_allclose(ground.vector, ground.vector[::-1], atol=1e-8)
    np.testing.assert_allclose(excited.vector, -excited.vector[::-1], atol=1e-8)


def test_agrees_with_sturm_bisection_oracle():
    grid = make_grid(6.0, 800)
    op = assemble(grid, TrapConfig(a=4.0, beta=0.0), np.zeros(grid.D - 1))
    pairs = lowest_eigenpairs(op, 3, grid)
    for n, pair in enumerate(pairs):
        oracle = tridiag_eigenvalue_bisection(op.diag, op.offdiag, n)
        assert pair.value == pytest.approx(oracle, rel=1e-8, abs=1e-8)


def test_normalization_and_sign_convention():
    grid = make_grid(5.0, 200)
    op = assemble(grid, TrapConfig(a=2.0, beta=0.0), np.zeros(grid.D - 1))
    for pair in lowest_eigenpairs(op, 4, grid):
        assert grid.delta * np.dot(pair.vector, pair.vector) == pytest.approx(1.0, abs=1e-12)
        assert pair.vector[np.argmax(np.abs(pair.vector))] > 0


def test_orthogonality():
    grid = make_grid(5.0, 400)
    op = assemble(grid, TrapConfig(a=3.0, beta=0.0), np.zeros(grid.D - 1))
    pairs = lowest_eigenpairs(op, 5, grid)
    for i in range(5):
        for j in range(5):
            dot = grid.delta * np.dot(pairs[i].vector, pairs[j].vector)
            assert dot == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


def _follow(op, pair, index, grid):
    """Newton at beta = 0 on op from a known pair, certified as the SCF certifies its pairs.

    Its (w, mu), or None where the two Sturm counts do not certify it as pair `index`.
    """
    w, mu, _, found = _newton(grid, 0.0, op, pair, index, 0, ScfConfig())
    return (w, mu) if found else None


def test_residuals_within_contract():
    # the followed pairs are the ones the SCF keeps; followed from those of a = 5.01,
    # after 3 steps each, they measure <= 1.5e-11 here
    grid = make_grid(6.0, 4000)
    op = assemble(grid, TrapConfig(a=5.0, beta=0.0), np.zeros(grid.D - 1))
    near = assemble(grid, TrapConfig(a=5.01, beta=0.0), np.zeros(grid.D - 1))
    for index, old in enumerate(lowest_eigenpairs(near, 4, grid)):
        pair = _follow(op, old, index, grid)
        assert pair is not None
        w, mu = pair
        r = op.apply(w) - mu * w
        norm = np.sqrt(grid.delta * np.dot(r, r))
        assert norm <= 1e-10 * (1.0 + abs(mu))


def test_cold_pairs_are_lapack_pairs_normalized():
    grid = make_grid(6.0, 4000)
    op = assemble(grid, TrapConfig(a=5.0, beta=0.0), np.zeros(grid.D - 1))
    vals, vecs = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, 3))
    for j, pair in enumerate(lowest_eigenpairs(op, 4, grid)):
        assert pair.value == vals[j]
        v = vecs[:, j] / np.sqrt(grid.delta * np.dot(vecs[:, j], vecs[:, j]))
        assert np.array_equal(pair.vector, v) or np.array_equal(pair.vector, -v)
        assert pair.vector[np.argmax(np.abs(pair.vector))] > 0
        r = op.apply(pair.vector) - pair.value * pair.vector
        # the float64 floor of the LAPACK eigensolve at D = 4000
        assert np.sqrt(grid.delta * np.dot(r, r)) <= 1.3e-10 * (1.0 + abs(pair.value))


def test_nonnegative_diagonal_shift_never_lowers_ground_state():
    grid = make_grid(5.0, 200)
    dens = np.exp(-grid.interior**2)
    dens /= grid.delta * dens.sum()
    e_bare = lowest_eigenpairs(
        assemble(grid, TrapConfig(a=2.0, beta=0.0), dens), 1, grid
    )[0].value
    e_shifted = lowest_eigenpairs(
        assemble(grid, TrapConfig(a=2.0, beta=0.5), dens), 1, grid
    )[0].value
    assert e_shifted >= e_bare


def test_determinism():
    grid = make_grid(5.0, 300)
    op = assemble(grid, TrapConfig(a=2.5, beta=0.0), np.zeros(grid.D - 1))
    a = lowest_eigenpairs(op, 3, grid)
    b = lowest_eigenpairs(op, 3, grid)
    for pa, pb in zip(a, b):
        assert pa.value == pb.value
        assert np.array_equal(pa.vector, pb.vector)


def test_k_out_of_range():
    grid = make_grid(5.0, 10)
    op = kinetic_operator(grid)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, 0, grid)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, op.size + 1, grid)


def test_count_below_matches_sturm_oracle():
    rng = np.random.default_rng(3)
    for size in (2, 7, 60):
        op = TridiagonalOperator(diag=rng.normal(size=size), offdiag=rng.normal(size=size - 1))
        vals = np.linalg.eigvalsh(dense(op))
        points = list(rng.uniform(vals[0] - 1.0, vals[-1] + 1.0, size=20))
        points += [v + s for v in vals for s in (-1e-9, 1e-9)]
        for x in points:
            assert count_below(op, x) == sturm_count(op.diag, op.offdiag, x)


def _block_and_pairs(density_scale):
    grid = make_grid(6.0, 1200)
    density = np.exp(-density_scale * grid.interior**2)
    op = block_operator(grid, TrapConfig(a=3.0, beta=0.5), fold(density, 0), 0)
    return grid, op, lowest_eigenpairs(op, 3, grid)


def test_follow_reaches_the_cold_pair_of_a_nearby_operator():
    grid, _, old = _block_and_pairs(1.0)
    _, op, cold = _block_and_pairs(1.01)
    for index in range(3):
        pair = _follow(op, old[index], index, grid)
        assert pair is not None
        w, mu = pair
        assert mu == pytest.approx(cold[index].value, abs=1e-10)
        np.testing.assert_allclose(w, cold[index].vector, atol=1e-8)
        assert grid.delta * np.dot(w, w) == pytest.approx(1.0, abs=1e-12)
        assert w[np.argmax(np.abs(w))] > 0


def test_follow_rejects_a_pair_of_another_index():
    # Newton from eigenpair 1 stays there; the Sturm counts say so
    grid, op, pairs = _block_and_pairs(1.0)
    assert _follow(op, pairs[1], 0, grid) is None
    assert _follow(op, pairs[0], 1, grid) is None
    assert _follow(op, pairs[1], 1, grid) is not None


@pytest.mark.parametrize("a", [5.0, 12.0])
@pytest.mark.parametrize("parity, index", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_window_certified_pair_is_the_counted_pair(sturm_counts, a, parity, index):
    # following the bare pair into an interacting block at D = 4000 certifies by
    # exactly the two Sturm counts around the residual ball of the pair it returns
    grid = make_grid(6.0, 4000)
    previous = lowest_eigenpairs(assemble_block(grid, a, parity), index + 1, grid)[index]
    op = block_operator(grid, TrapConfig(a=a, beta=0.5), previous.vector**2, parity)
    counted = _follow(op, previous, index, grid)
    assert counted is not None
    w, mu = counted
    r = op.apply(w) - mu * w
    h = max(float(np.sqrt(grid.delta * np.dot(r, r))), ROUNDOFF_FLOOR * EPS * norm_inf(op))
    assert sturm_counts == [mu - h, mu + h]


def test_certified_is_two_counts_around_the_residual_ball(sturm_counts):
    grid, op, pairs = _block_and_pairs(1.0)
    for index, pair in enumerate(pairs):
        r = op.apply(pair.vector) - pair.value * pair.vector
        residual = float(np.sqrt(grid.delta * np.dot(r, r)))
        sturm_counts.clear()
        assert certified(op, pair.value, residual, index)
        h = max(residual, ROUNDOFF_FLOOR * EPS * norm_inf(op))
        assert sturm_counts == [pair.value - h, pair.value + h]
        assert not certified(op, pair.value, residual, index + 1)
    # a ball that holds two eigenvalues certifies neither
    gap = pairs[1].value - pairs[0].value
    assert not certified(op, pairs[0].value, 1.5 * gap, 0)


def test_bare_pair_of_a_coarse_wide_grid_certified():
    # solve --a 0.5 --states 7 --D 8 --L 20 grows L to 45. There the Sturm counts place the
    # ground eigenvalue 9.2e-11 below the pair's value, on the edge of its residual ball
    # (residual 9.2e-11), so a window of max(residual, 1e-12 (1 + |value|)) misses it by
    # roundoff; the counts' roundoff floor, 2.3e-9, takes it in
    grid = make_grid(45.0, 8)
    op = assemble_block(grid, 0.5, 0)
    pair = lowest_eigenpairs(op, 1, grid)[0]
    r = op.apply(pair.vector) - pair.value * pair.vector
    residual = float(np.sqrt(grid.delta * np.dot(r, r)))
    assert certified(op, pair.value, residual, 0)
    h = max(residual, 1e-12 * (1.0 + abs(pair.value)))
    assert not (count_below(op, pair.value - h) == 0 and count_below(op, pair.value + h) == 1)
