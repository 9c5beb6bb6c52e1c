"""Block system assembly, constraint elimination, and the solve contract."""
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from vvpflow import linalg
from vvpflow.linalg import (
    RESIDUAL_TOL,
    ROUNDOFF_RESIDUAL,
    FactorHolder,
    SingularSystemError,
    SolverError,
    assemble_blocks,
    eliminate,
    m_norm,
    solve,
    solve_reduced,
    solve_spd,
    stack_blocks,
)

from oracles import relative_residual


def random_block_system(rng, constrain=True):
    """A small two-group SPD-ish system, as the arguments of assemble_blocks,
    with its known dense counterpart."""
    na, nb = 5, 3
    Aaa = rng.normal(size=(na, na))
    Aaa = Aaa @ Aaa.T + na * np.eye(na)
    Aab = rng.normal(size=(na, nb))
    Abb = rng.normal(size=(nb, nb))
    Abb = Abb @ Abb.T + nb * np.eye(nb)
    blocks = {("a", "a"): Aaa, ("a", "b"): Aab, ("b", "a"): Aab.T, ("b", "b"): Abb}
    blocks = {key: sp.csr_matrix(m) for key, m in blocks.items()}
    ra = rng.normal(size=na)
    rb = rng.normal(size=nb)
    dense = np.block([[Aaa, Aab], [Aab.T, Abb]])
    rhs = np.concatenate([ra, rb])
    fixed_idx, fixed_vals = np.array([1, 3]), np.array([2.0, -1.0])
    constraints = {"a": (fixed_idx, fixed_vals)} if constrain else {}
    system = ({"a": na, "b": nb}, blocks, {"a": ra, "b": rb}, constraints)
    return system, dense, rhs, fixed_idx, fixed_vals


def test_block_shape_and_name_validation():
    """A block grid that does not cover the groups' sizes is rejected."""
    groups = {"a": 2, "b": 3}
    with pytest.raises(ValueError, match="does not cover"):
        assemble_blocks(groups, {("a", "a"): sp.eye(2), ("b", "b"): sp.eye(2)})
    with pytest.raises(ValueError, match="does not cover"):
        assemble_blocks(groups, {("a", "a"): sp.eye(2), ("a", "c"): sp.eye(3)})
    blocks = {("a", "a"): sp.eye(2), ("b", "b"): sp.eye(3)}
    with pytest.raises(ValueError, match="incompatible"):
        assemble_blocks(groups, {**blocks, ("a", "b"): sp.eye(2)})
    with pytest.raises(ValueError):
        assemble_blocks(groups, blocks, {"b": np.zeros(2)})
    assert assemble_blocks(groups, blocks).matrix.shape == (5, 5)


def test_stacked_slots_hold_their_entries_through_elimination():
    """Slots join the pattern once each, as explicit zeros where no block
    has an entry; each returned position holds its (row, col), existing
    values are unchanged, and eliminate keeps the slots, so a refill
    writes into them."""
    groups = {"a": 2, "b": 2}
    aa = sp.csr_matrix([[1.0, 2.0], [0.0, 3.0]])
    blocks = {("a", "a"): aa, ("b", "b"): 4 * sp.eye(2)}
    rows, cols = np.array([0, 1, 2, 2, 1]), np.array([1, 0, 0, 1, 0])  # (1, 0) twice
    plain, none = stack_blocks(groups, blocks)
    matrix, positions = stack_blocks(groups, blocks, (rows, cols))
    assert len(none) == 0
    assert matrix.nnz == plain.nnz + 3
    entry_rows = np.repeat(np.arange(4), np.diff(matrix.indptr))
    np.testing.assert_array_equal(entry_rows[positions], rows)
    np.testing.assert_array_equal(matrix.indices[positions], cols)
    np.testing.assert_array_equal(matrix.data[positions], [2.0, 0.0, 0.0, 0.0, 0.0])
    assert positions[1] == positions[4]
    np.testing.assert_array_equal(matrix.toarray(), plain.toarray())

    reduced = eliminate(matrix, groups, np.array([3]))
    assert reduced.matrix.nnz == 7
    assert np.isin(positions, reduced.positions).all()
    added = np.bincount(positions, [10.0, 20.0, 30.0, 40.0, 50.0], minlength=matrix.nnz)
    reduced.refill(matrix.data + added, np.zeros(4), np.zeros(1))
    want = [[1.0, 12.0, 0.0], [70.0, 3.0, 0.0], [30.0, 40.0, 4.0]]
    np.testing.assert_array_equal(reduced.matrix.toarray(), want)


def test_empty_constraint_fixes_nothing():
    groups = {"a": 3, "b": 2}
    blocks = {("a", "a"): sp.eye(3), ("b", "b"): 2 * sp.eye(2)}
    constraints = {"b": (np.array([], int), np.array([])), "a": (np.array([1]), [4.0])}
    reduced = assemble_blocks(groups, blocks, constraints=constraints)
    np.testing.assert_array_equal(reduced.fixed, [1])
    full, _ = solve_reduced(reduced)
    np.testing.assert_array_equal(full, [0.0, 4.0, 0.0, 0.0, 0.0])


def test_elimination_matches_dense_oracle():
    rng = np.random.default_rng(3)
    system, dense, rhs, fixed_idx, fixed_vals = random_block_system(rng)
    reduced = assemble_blocks(*system)
    free = np.setdiff1d(np.arange(8), fixed_idx)
    np.testing.assert_array_equal(reduced.free, free)
    np.testing.assert_allclose(
        reduced.matrix.toarray(), dense[np.ix_(free, free)], atol=1e-14
    )
    want_rhs = rhs[free] - dense[np.ix_(free, fixed_idx)] @ fixed_vals
    np.testing.assert_allclose(reduced.rhs, want_rhs, atol=1e-14)


def test_solve_reduced_matches_exact_penalty_oracle():
    """Eliminated solve equals the dense solve with constraint rows replaced."""
    rng = np.random.default_rng(4)
    system, dense, rhs, fixed_idx, fixed_vals = random_block_system(rng)
    full, residual = solve_reduced(assemble_blocks(*system))
    oracle = dense.copy()
    oracle_rhs = rhs.copy()
    for i, v in zip(fixed_idx, fixed_vals):
        oracle[i, :] = 0.0
        oracle[i, i] = 1.0
        oracle_rhs[i] = v
    want = np.linalg.solve(oracle, oracle_rhs)
    np.testing.assert_allclose(full, want, rtol=1e-11, atol=1e-12)
    np.testing.assert_allclose(full[fixed_idx], fixed_vals, atol=1e-14)
    assert residual <= RESIDUAL_TOL


def test_reduced_split_restores_groups():
    rng = np.random.default_rng(5)
    system, _, _, fixed_idx, fixed_vals = random_block_system(rng)
    reduced = assemble_blocks(*system)
    full, _ = solve_reduced(reduced)
    parts = reduced.split(full)
    assert parts["a"].shape == (5,)
    assert parts["b"].shape == (3,)
    np.testing.assert_allclose(np.concatenate([parts["a"], parts["b"]]), full)


def test_unconstrained_assembly():
    rng = np.random.default_rng(6)
    system, dense, rhs, _, _ = random_block_system(rng, constrain=False)
    reduced = assemble_blocks(*system)
    np.testing.assert_allclose(reduced.matrix.toarray(), dense, atol=1e-14)
    np.testing.assert_allclose(reduced.rhs, rhs, atol=1e-14)
    assert reduced.fixed.size == 0


def test_explicit_zeros_keep_their_slots_through_elimination():
    """A zero entry of the pattern keeps its slot in the reduced matrix,
    and a refill with new data writes into that slot."""
    data = np.array([2.0, 0.0, 1.0, 3.0, 5.0])
    pattern = sp.csr_matrix((data, [0, 1, 2, 1, 2], [0, 3, 4, 5]), shape=(3, 3))
    reduced = eliminate(pattern, {"a": 3}, np.array([2]))
    np.testing.assert_array_equal(reduced.free, [0, 1])
    np.testing.assert_array_equal(reduced.positions, [0, 1, 3])
    assert reduced.matrix.nnz == 3
    reduced.refill(pattern.data, np.array([1.0, 1.0, 7.0]), np.array([7.0]))
    np.testing.assert_array_equal(reduced.matrix.toarray(), [[2.0, 0.0], [0.0, 3.0]])
    np.testing.assert_array_equal(reduced.rhs, [-6.0, 1.0])

    reduced.refill(np.array([2.0, 4.0, 1.0, 3.0, 5.0]), np.ones(3), np.array([0.0]))
    assert reduced.matrix.nnz == 3
    np.testing.assert_array_equal(reduced.matrix.toarray(), [[2.0, 4.0], [0.0, 3.0]])
    np.testing.assert_array_equal(reduced.rhs, [1.0, 1.0])
    np.testing.assert_array_equal(reduced.expand([5.0, 6.0]), [5.0, 6.0, 0.0])


def test_solve_residual_is_tiny():
    rng = np.random.default_rng(7)
    a = sp.random(40, 40, density=0.3, random_state=7) + 40 * sp.eye(40)
    rhs = rng.normal(size=40)
    x, res = solve(a, rhs)
    assert relative_residual(sp.csc_matrix(a), rhs, x) < 1e-14
    assert res == relative_residual(sp.csc_matrix(a), rhs, x)


def test_solve_rejects_singular_matrix():
    a = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularSystemError):
        solve(a, np.array([1.0, 1.0]))


def test_solve_enforces_residual_contract(monkeypatch):
    rng = np.random.default_rng(9)
    a = sp.csc_matrix(rng.normal(size=(20, 20)) + 20 * np.eye(20))
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolverError, match="residual contract"):
        solve(a, rng.normal(size=20))


def test_solve_requires_square():
    with pytest.raises(ValueError, match="square"):
        solve(sp.csr_matrix(np.ones((2, 3))), np.zeros(2))


def test_m_norm_matches_dense_quadratic_form():
    rng = np.random.default_rng(8)
    b = rng.normal(size=(4, 4))
    mass = sp.csr_matrix(b @ b.T + 4 * np.eye(4))
    x = rng.normal(size=4)
    want = float(np.sqrt(x @ (mass.toarray() @ x)))
    assert m_norm(mass, x) == pytest.approx(want, rel=1e-13)
    assert m_norm(sp.eye(4, format="csr"), np.zeros(4)) == 0.0


def test_relative_residual_zero_rhs_guard():
    a = sp.eye(2, format="csc")
    x, res = solve(a, np.zeros(2))
    assert res == 0.0
    np.testing.assert_array_equal(x, np.zeros(2))


def test_solve_in_a_given_order_matches_natural_order():
    """A system eliminated in a permuted order solves to the index-order
    solution."""
    rng = np.random.default_rng(10)
    system, _, _, fixed_idx, fixed_vals = random_block_system(rng)
    groups, blocks, rhs, _ = system
    natural = assemble_blocks(*system)
    pattern, _ = stack_blocks(groups, blocks)
    reduced = eliminate(pattern, groups, fixed_idx, rng.permutation(8))
    reduced.refill(pattern.data, linalg.stack(groups, rhs), fixed_vals)
    full, res = solve_reduced(reduced)
    want, _ = solve_reduced(natural)
    np.testing.assert_allclose(full, want, rtol=1e-13)
    assert res <= RESIDUAL_TOL


def test_solve_reduced_narrows_a_longer_order_to_the_free_unknowns():
    """The order lists the fixed unknowns too; ``free`` lists the free
    ones in the order, the fixed ones dropped and the rest in their
    relative order, and the reduced matrix is the index-order one
    permuted."""
    rng = np.random.default_rng(11)
    system, _, _, fixed_idx, fixed_vals = random_block_system(rng)
    groups, blocks, rhs, _ = system
    natural = assemble_blocks(*system)
    pattern, _ = stack_blocks(groups, blocks)
    order = np.array([7, 3, 0, 6, 1, 2, 5, 4])
    reduced = eliminate(pattern, groups, fixed_idx, order)
    reduced.refill(pattern.data, linalg.stack(groups, rhs), fixed_vals)
    kept = [i for i in order if i not in fixed_idx]
    np.testing.assert_array_equal(reduced.free, kept)
    rank = np.searchsorted(natural.free, kept)
    np.testing.assert_array_equal(
        reduced.matrix.toarray(), natural.matrix.toarray()[rank][:, rank]
    )
    full, res = solve_reduced(reduced)
    want, _ = solve_reduced(natural)
    np.testing.assert_allclose(full, want, rtol=1e-13)
    assert res <= RESIDUAL_TOL


@pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5, 6, 6], [0, 1, 2, 3, 4, 5, 6]])
def test_eliminate_needs_an_order_that_lists_each_unknown_once(order):
    """A repeated index or a short order is refused."""
    system, _, _, fixed_idx, _ = random_block_system(np.random.default_rng(11))
    pattern, _ = stack_blocks(*system[:2])
    with pytest.raises(ValueError, match="order must list each of the 8 unknowns exactly once"):
        eliminate(pattern, system[0], fixed_idx, order)


@pytest.mark.parametrize("seed", range(5))
def test_peel_leaves_as_many_rows_and_columns_as_the_rank_misses(seed):
    """A random matrix built to peel (unit lower triangular in shuffled
    rows and columns, with empty rows, empty columns and copies of a
    column appended): the unpaired rows and columns are as many as the
    rank misses, and the paired ones are a nonsingular submatrix."""
    rng = np.random.default_rng(seed)
    n = 30
    a = np.tril(rng.integers(-1, 2, (n, n)) * (rng.random((n, n)) < 0.2), -1) + np.eye(n)
    a = np.vstack([a, np.zeros((3, n))])  # rows that no column reaches
    a = np.hstack([a, np.zeros((n + 3, 2)), a[:, :4] * 2.0])  # and dependent columns
    a = a[rng.permutation(len(a))][:, rng.permutation(a.shape[1])]
    rows, cols = linalg.peel(sp.csr_matrix(a))
    rank = np.linalg.matrix_rank(a)
    assert (len(rows), len(cols)) == (a.shape[0] - rank, a.shape[1] - rank)
    paired = np.delete(np.delete(a, rows, axis=0), cols, axis=1)
    assert np.linalg.matrix_rank(paired) == rank == len(paired)


def test_peel_names_a_core_it_cannot_rank():
    """A 2 x 2 block of ones beside a peelable entry: no live row or column
    of the block has one entry, so peeling raises instead of guessing."""
    a = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match="peeling left a core of 2 rows and 2 columns"):
        linalg.peel(a)


def test_solve_spd_solves_without_a_factor(monkeypatch):
    rng = np.random.default_rng(5)
    b = sp.random(40, 40, density=0.1, random_state=5)
    a = b @ b.T + 40 * sp.eye(40)
    rhs = rng.normal(size=40)
    factors = _spy_factors(monkeypatch)
    x, res = solve_spd(a, rhs)
    assert factors == []
    assert res <= RESIDUAL_TOL
    np.testing.assert_allclose(x, np.linalg.solve(a.toarray(), rhs), rtol=1e-13)


@pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
def test_solve_spd_enforces_the_residual_contract():
    """A singular system with no solution: CG cannot meet RESIDUAL_TOL."""
    a = sp.csr_matrix([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(SolverError, match="conjugate gradients violated the residual contract"):
        solve_spd(a, np.array([1.0, 0.0]))


def _spy_factors(monkeypatch):
    """Record the dtype of every matrix SuperLU factors."""
    dtypes = []
    real = linalg.spla.splu

    def spy(m, **kwargs):
        dtypes.append(m.dtype)
        return real(m, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", spy)
    return dtypes


def test_factor_holder_reuses_a_close_factor_and_replaces_a_far_one(monkeypatch):
    rng = np.random.default_rng(12)
    a = sp.random(30, 30, density=0.2, random_state=12) + 30 * sp.eye(30)
    rhs = rng.normal(size=30)
    factors = _spy_factors(monkeypatch)
    holder = FactorHolder()
    solve(a, rhs, factor=holder)
    assert (len(factors), holder.reused) == (1, False)

    near = a + 1e-3 * sp.random(30, 30, density=0.2, random_state=13)
    x, res = solve(near, rhs, factor=holder)
    assert (len(factors), holder.reused) == (1, True)
    assert holder.passes >= 1
    assert res <= ROUNDOFF_RESIDUAL
    np.testing.assert_allclose(x, np.linalg.solve(near.toarray(), rhs), rtol=1e-12)

    far = a + 30 * sp.random(30, 30, density=0.2, random_state=14)
    x, res = solve(far, rhs, factor=holder)
    assert (len(factors), holder.reused) == (2, False)
    assert relative_residual(far, rhs, x) == res <= RESIDUAL_TOL


def test_a_factor_made_ahead_counts_as_the_solves_own(monkeypatch):
    """``factor_now`` factors before the solve, which makes no factor of its
    own, reports it fresh and returns the bits of a solve that factors for
    itself; the next solve reuses it.  It breaks down as a solve's fresh
    factor does."""
    rng = np.random.default_rng(12)
    a = sp.random(30, 30, density=0.2, random_state=12) + 30 * sp.eye(30)
    rhs = rng.normal(size=30)
    factors = _spy_factors(monkeypatch)
    own = FactorHolder()
    want, want_res = solve(a, rhs, factor=own)
    holder = FactorHolder()
    holder.factor_now(a)
    assert (len(factors), holder.fresh) == (2, True)
    x, res = solve(a, rhs, factor=holder)
    assert (len(factors), holder.reused, holder.fresh) == (2, False, False)
    assert (x.tobytes(), res, holder.passes) == (want.tobytes(), want_res, own.passes)
    solve(a, rhs, factor=holder)
    assert (len(factors), holder.reused) == (2, True)

    factors.clear()
    holder = FactorHolder(dtype=np.float32)
    holder.factor_now(sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])))
    assert (factors, holder.dtype) == ([np.float32, np.float64], np.float64)
    holder = FactorHolder()
    with pytest.raises(SingularSystemError):
        holder.factor_now(sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]])))
    assert (holder.lu, holder.fresh) == (None, False)


def test_factor_holder_keeps_the_factor_of_an_unchanged_matrix(monkeypatch):
    """A held factor whose refinement ends above ROUNDOFF_RESIDUAL is
    replaced only when the matrix is not bitwise the one it factors:
    factoring that one again would give the same factor and residual."""
    monkeypatch.setattr(linalg, "ROUNDOFF_RESIDUAL", 0.0)  # no solve ends below it
    monkeypatch.setattr(linalg, "ROUNDOFF_BACKWARD_ERROR", 0.0)  # nor below this
    rng = np.random.default_rng(12)
    a = sp.random(30, 30, density=0.2, random_state=12) + 30 * sp.eye(30)
    rhs = rng.normal(size=30)
    factors = _spy_factors(monkeypatch)
    holder = FactorHolder()
    x, res = solve(a, rhs, factor=holder)
    again, res_again = solve(sp.csr_matrix(a, copy=True), rhs, factor=holder)
    assert (len(factors), holder.reused) == (1, True)
    assert (again.tobytes(), res_again) == (x.tobytes(), res)

    near = a + 1e-3 * sp.random(30, 30, density=0.2, random_state=13)
    solve(near, rhs, factor=holder)
    assert (len(factors), holder.reused) == (2, False)
    solve(near, rhs, factor=holder)
    assert (len(factors), holder.reused) == (2, True)


# ---------------------------------------------------------------------------
# float32 factors refined in float64


def _spy_passes(monkeypatch):
    """Record the refinement passes of every factor a solve tries."""
    passes = []
    real = linalg._refine

    def spy(*args):
        out = real(*args)
        passes.append(out[2])
        return out

    monkeypatch.setattr(linalg, "_refine", spy)
    return passes


def _conditioned(rng, cond, n=30):
    """A dense n x n matrix whose singular values run from 1 down to 1/cond."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return sp.csr_matrix(q1 @ np.diag(np.logspace(0, -np.log10(cond), n)) @ q2.T)


@pytest.mark.parametrize("scale", [1.0, 1e-40, 1e40, 1e-200, 1e200])
def test_float32_holder_keeps_a_factor_that_refines_to_roundoff(monkeypatch, scale):
    """The right-hand side is brought to unit size before the solve, so a
    float32 factor neither overflows (1e40) nor loses its late residuals
    to underflow (1e-40), and the norms of the residual check stay finite
    and nonzero in float64 (1e200 and 1e-200)."""
    rng = np.random.default_rng(15)
    a = sp.random(30, 30, density=0.2, random_state=15) + 30 * sp.eye(30)
    rhs = rng.normal(size=30)
    want, _ = solve(a, rhs)
    dtypes = _spy_factors(monkeypatch)
    holder = FactorHolder(dtype=np.float32)
    x, res = solve(a, scale * rhs, factor=holder)
    assert dtypes == [np.float32]
    assert holder.dtype == np.float32
    assert 0.0 < res <= ROUNDOFF_RESIDUAL
    np.testing.assert_allclose(x / scale, want, rtol=1e-13)


def test_float32_holder_falls_back_to_float64_where_float32_cannot_resolve(monkeypatch):
    """At condition number 1e10 the float32 factor's first pass does not
    contract; the same matrix is factored in float64, which meets the
    contract and stays the holder's precision.  ``passes`` counts the
    passes of both factors, and the solve did not reuse a factor."""
    rng = np.random.default_rng(16)
    a = _conditioned(rng, 1e10)
    rhs = a @ rng.normal(size=30)
    dtypes, passes = _spy_factors(monkeypatch), _spy_passes(monkeypatch)
    holder = FactorHolder(dtype=np.float32)
    x, res = solve(a, rhs, factor=holder)
    assert dtypes == [np.float32, np.float64]
    assert (holder.dtype, holder.reused) == (np.float64, False)
    assert len(passes) == 2 and passes[0] >= 1
    assert holder.passes == sum(passes)
    assert relative_residual(a, rhs, x) == res <= ROUNDOFF_RESIDUAL

    far = _conditioned(rng, 1e10)
    solve(far, far @ rng.normal(size=30), factor=holder)
    assert dtypes == [np.float32, np.float64, np.float64]


def test_float32_holder_falls_back_when_float32_pivots_break_down(monkeypatch):
    """1 + 1e-9 rounds to 1 in float32, so its factor is exactly singular."""
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]]))
    dtypes = _spy_factors(monkeypatch)
    holder = FactorHolder(dtype=np.float32)
    x, res = solve(a, np.array([1.0, 2.0]), factor=holder)
    assert dtypes == [np.float32, np.float64]
    assert holder.dtype == np.float64
    assert res <= RESIDUAL_TOL
    np.testing.assert_allclose(x, [1.0 - 1e9, 1e9], rtol=1e-6)


def test_float32_holder_raises_singular_only_from_float64(monkeypatch):
    dtypes = _spy_factors(monkeypatch)
    holder = FactorHolder(dtype=np.float32)
    with pytest.raises(SingularSystemError):
        solve(sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]])), np.ones(2), factor=holder)
    assert dtypes == [np.float32, np.float64]
    assert holder.dtype == np.float64


def _spy_backward_errors(monkeypatch):
    """Record every componentwise backward error a solve evaluates."""
    seen = []
    real = linalg._backward_error

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(linalg, "_backward_error", spy)
    return seen


def test_a_held_factor_is_judged_against_the_whole_right_hand_side(monkeypatch):
    """The right-hand side of an increment is what an earlier state leaves of
    a larger one.  Where the increment lies along the smallest singular
    direction, its relative residual floors far above ROUNDOFF_RESIDUAL
    (3.5e-13 here, even from a fresh factor).  Each roundoff test accepts
    on its own.  The held factor of a nearby matrix is kept by the second
    (judged against the whole right-hand side's norm, before any backward
    error is evaluated) or by the third (the componentwise backward error)
    alone, and replaced without both.  The residual returned stays
    relative to ``rhs``.  A solve that the first accepts, ending at
    ROUNDOFF_RESIDUAL, asks for neither the whole norm nor the backward
    error."""
    rng = np.random.default_rng(17)
    a = _conditioned(rng, 1e4)
    near = a + 1e-7 * sp.csr_matrix(rng.normal(size=a.shape))
    rhs = near @ np.linalg.svd(near.toarray())[2][-1]
    factors = _spy_factors(monkeypatch)
    errors = _spy_backward_errors(monkeypatch)
    whole = lambda: 1e4 * np.linalg.norm(rhs)  # noqa: E731
    floor = linalg.ROUNDOFF_BACKWARD_ERROR
    for whole_norm, componentwise, kept in (
        (None, False, False),
        (whole, False, True),
        (None, True, True),
    ):
        monkeypatch.setattr(linalg, "ROUNDOFF_BACKWARD_ERROR", floor if componentwise else 0.0)
        holder = FactorHolder()
        solve(a, rng.normal(size=a.shape[0]), factor=holder)
        factors.clear()
        errors.clear()
        x, res = solve(near, rhs, factor=holder, whole_norm=whole_norm)
        assert (holder.reused, len(factors)) == (kept, 0 if kept else 1)
        assert relative_residual(near, rhs, x) == res
        assert 1e2 * ROUNDOFF_RESIDUAL < res <= RESIDUAL_TOL
        if whole_norm is None:
            assert 0.0 < errors[0] <= floor
        else:  # the whole norm keeps it before the backward error is asked for
            assert errors == []
    monkeypatch.undo()

    def unused(*args):
        raise AssertionError("whole norm or backward error asked for at roundoff")

    monkeypatch.setattr(linalg, "_backward_error", unused)
    a = sp.random(30, 30, density=0.2, random_state=12) + 30 * sp.eye(30)
    _, res = solve(a, rng.normal(size=30), whole_norm=unused)
    assert res <= ROUNDOFF_RESIDUAL


def test_a_huge_whole_norm_does_not_keep_a_factor_that_fails_to_converge(monkeypatch):
    """The whole-norm roundoff test holds only within RESIDUAL_TOL: the held
    float64 factor of a far matrix leaves a relative residual near 1, which
    no whole norm, however large, may declare at roundoff.  The solve
    refactors and ends at roundoff, as it does without a whole norm."""
    rng = np.random.default_rng(35)
    a = sp.random(50, 50, density=0.2, random_state=35) + 50 * sp.eye(50)
    far = sp.random(50, 50, density=0.2, random_state=36) - 50 * sp.eye(50)
    rhs = rng.normal(size=50)
    factors = _spy_factors(monkeypatch)
    for whole_norm in (None, lambda: 1e20 * np.linalg.norm(rhs)):
        holder = FactorHolder(dtype=np.float64)
        solve(far, rng.normal(size=50), factor=holder)
        factors.clear()
        x, res = solve(a, rhs, factor=holder, whole_norm=whole_norm)
        assert (holder.reused, len(factors)) == (False, 1)
        assert res <= ROUNDOFF_RESIDUAL
        assert relative_residual(a, rhs, x) == res


def test_backward_error_refuses_a_non_finite_magnitude():
    """x = (1.5e308, -1.5e308) solves [[1, 1], [0, 1]] x = b exactly, but
    |A||x| overflows: with r = 0 every row's ratio would read 0.  Such an
    x, and one whose residual is NaN, count as inf."""
    a = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    x = np.array([1.5e308, -1.5e308])
    b = a @ x
    assert np.all(np.isfinite(b)) and not np.all(np.isfinite(abs(a) @ np.abs(x)))
    assert linalg._backward_error(a, b, x) == np.inf
    assert linalg._backward_error(a, b, np.array([np.nan, 0.0])) == np.inf
    assert linalg._backward_error(a, b, np.array([0.0, 1.0])) == 1.0  # r = b


def test_a_near_null_iterate_is_refused_above_the_residual_tolerance(monkeypatch):
    """An iterate far along a near-null direction v of the matrix (A v is
    2^-51 of |A||v|) has a componentwise backward error below
    ROUNDOFF_BACKWARD_ERROR while its relative residual is above
    RESIDUAL_TOL.  A stale factor that ends there is replaced, and the
    matrix's own factor meets the contract."""
    delta = 2.0**-51
    a = sp.csr_matrix(np.array([[1.0, -1.0], [1.0, -1.0 + delta]]))
    stale = sp.csr_matrix(np.array([[1.0, -1.0], [1.0, -1.0 + 2 * delta]]))
    rhs = a @ np.array([1.0, 2.0])
    real = linalg._refine
    iterates = []

    def near_null_first(lu, matrix, b, dtype, x0):
        x, res, passes = real(lu, matrix, b, dtype, x0)
        if not iterates:
            x = x + 1e8
            res = np.linalg.norm(b - matrix @ x) / np.linalg.norm(b)
        iterates.append((x, b))
        return x, res, passes

    holder = FactorHolder()
    solve(stale, rhs, factor=holder)
    factors = _spy_factors(monkeypatch)
    monkeypatch.setattr(linalg, "_refine", near_null_first)
    x, res = solve(a, rhs, factor=holder)
    far, b = iterates[0]
    assert linalg._backward_error(a, b, far) <= linalg.ROUNDOFF_BACKWARD_ERROR
    assert relative_residual(a, b, far) > RESIDUAL_TOL
    assert (len(factors), holder.reused) == (1, False)
    assert relative_residual(a, rhs, x) == res <= RESIDUAL_TOL


def test_work_handed_on_from_the_worker_runs_there_at_once():
    """``on_worker`` called on the worker runs its function inline and
    returns the done Future, with its value or its error, instead of
    queueing behind itself."""

    def name():
        return threading.current_thread().name

    def fails():
        raise ValueError("inline")

    def nested():
        inner = linalg.on_worker(name)
        assert inner.done()
        with pytest.raises(ValueError, match="inline"):
            linalg.on_worker(fails).result()
        return name(), inner.result()

    outer, inner = linalg.on_worker(nested).result(timeout=60)
    assert outer == inner and outer.startswith("vvpflow-worker")
