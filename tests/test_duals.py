import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from memtrace import traced_peak
from rieszlab import (
    DimensionError,
    IllConditionedError,
    NoBiorthogonalSequenceError,
    VectorSequence,
    VerdictKind,
    biorthogonality_residual,
    classify,
    completeness_defect,
    duality_identity_residual,
    minimal_dual,
    orthonormal,
    weighted_pair,
    young_example,
    young_general,
)
from rieszlab import duals
from rieszlab.duals import _minus_identity
from rieszlab.seqcore import _nonzeros, _rank, _sigma


def seq_of(*vectors):
    return VectorSequence.from_columns(np.column_stack([np.asarray(v, dtype=complex) for v in vectors]))


def random_seq(seed, dim, count):
    return VectorSequence.from_columns(oracles.random_columns(seed, dim, count))


class TestMinimalDual:
    def test_orthonormal_self_dual(self):
        dual = minimal_dual(orthonormal(4))
        np.testing.assert_allclose(dual.columns, np.eye(4), atol=1e-14)

    def test_weighted_reciprocal(self):
        pair = weighted_pair(5)
        dual = minimal_dual(pair.primal)
        np.testing.assert_allclose(dual.columns, pair.partner.columns, atol=1e-13)

    def test_hand_example(self):
        seq = seq_of([1, 0], [1, 1])
        # Gram inverse is [[2,-1],[-1,1]], so the dual columns are (1,-1), (0,1)
        dual = minimal_dual(seq)
        np.testing.assert_allclose(dual.columns, [[1, 0], [-1, 1]], atol=1e-14)

    def test_residual_contract(self):
        for seed in range(10):
            seq = random_seq(seed, 8, 5)
            dual = minimal_dual(seq)
            assert biorthogonality_residual(seq, dual) <= 1e-8

    def test_involution_on_bases(self):
        for seed in range(5):
            seq = random_seq(seed, 6, 6)
            again = minimal_dual(minimal_dual(seq))
            assert np.abs(again.columns - seq.columns).max() <= 1e-8

    def test_span_equality(self):
        seq = random_seq(4, 7, 3)
        dual = minimal_dual(seq)
        joined = np.concatenate([seq.columns, dual.columns], axis=1)
        assert _rank(VectorSequence.from_columns(joined)) == _rank(seq)

    def test_dual_lives_in_span(self):
        # For an incomplete system the dual is non-unique up to components in
        # the orthogonal complement; the minimal one has none.
        for seq in (young_example(4).primal, random_seq(9, 8, 3)):
            dual = minimal_dual(seq)
            u, s, _ = np.linalg.svd(seq.columns, full_matrices=True)
            rank = int(np.count_nonzero(s > s[0] * max(seq.columns.shape) * 1e-12))
            complement = u[:, rank:]
            assert np.linalg.norm(complement.conj().T @ dual.columns) <= 1e-10

    def test_complement_perturbation_preserves_biorthogonality(self):
        seq = young_example(4).primal
        dual = minimal_dual(seq)
        u, s, _ = np.linalg.svd(seq.columns, full_matrices=True)
        direction = u[:, -1]  # orthogonal to the span
        shifted = VectorSequence.from_columns(
            dual.columns + np.outer(direction, np.arange(1.0, 5.0))
        )
        assert biorthogonality_residual(seq, shifted) <= 1e-12
        assert biorthogonality_residual(seq, dual) <= 1e-12

    def test_dependent_columns_rejected(self):
        with pytest.raises(NoBiorthogonalSequenceError):
            minimal_dual(seq_of([1, 0], [1, 0]))

    def test_ill_conditioned_rejected(self):
        seq = seq_of([1, 0], [1, 1e-10])
        with pytest.raises(IllConditionedError):
            minimal_dual(seq)

    def test_outcome_is_kept_per_system(self):
        seq = random_seq(3, 5, 5)
        assert minimal_dual(seq) is minimal_dual(seq)
        copy = VectorSequence.from_columns(seq.columns)
        assert minimal_dual(copy) is not minimal_dual(seq)
        np.testing.assert_array_equal(minimal_dual(copy).columns, minimal_dual(seq).columns)

    @pytest.mark.parametrize(
        "columns, error",
        [(([1, 0], [1, 1e-10]), IllConditionedError), (([1, 0], [1, 0]), NoBiorthogonalSequenceError)],
    )
    def test_kept_failure_raises_a_fresh_error(self, columns, error):
        seq = seq_of(*columns)
        raised = []
        for _ in range(2):
            with pytest.raises(error) as info:
                minimal_dual(seq)
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert type(raised[0]) is type(raised[1]) and str(raised[0]) == str(raised[1])


class TestDualityIdentityResidual:
    def test_orthonormal(self):
        seq = orthonormal(3)
        assert duality_identity_residual(seq, seq) <= 1e-15

    def test_basis_with_minimal_dual_reconstructs(self):
        for seed in range(8):
            seq = random_seq(seed, 7, 7)
            dual = minimal_dual(seq)
            assert duality_identity_residual(seq, dual) <= 1e-8
            assert classify(seq).kind is VerdictKind.RIESZ_BASIS

    @pytest.mark.parametrize("n", [4, 9])
    def test_young_pair_residual(self, n):
        pair = young_example(n)
        residual = duality_identity_residual(pair.primal, pair.partner)
        assert residual == pytest.approx(np.sqrt(n + 1), rel=1e-12)
        # independent oracle: eigensolve of R^H R for the assembled residual
        assembled = pair.primal.columns @ pair.partner.columns.conj().T - np.eye(n + 1)
        assert oracles.spectral_norm(assembled) == pytest.approx(np.sqrt(n + 1), rel=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            duality_identity_residual(orthonormal(3), orthonormal(4))

    @pytest.mark.parametrize("dim, count", [(5, 2), (40, 3), (64, 10), (100, 1), (29, 14)])
    @pytest.mark.parametrize("minimal", [True, False], ids=["minimal", "nonminimal"])
    def test_tall_pair_matches_the_full_norm(self, dim, count, minimal):
        seq = random_seq(dim + count, dim, count)
        partner = minimal_dual(seq)
        if not minimal:
            # Adding vectors orthogonal to span(F) keeps the pair biorthogonal.
            q = np.linalg.qr(seq.columns)[0]
            extra = oracles.random_columns(dim * count, dim, count)
            extra -= q @ (q.conj().T @ extra)
            partner = VectorSequence.from_columns(partner.columns + extra)
            assert biorthogonality_residual(seq, partner) <= 1e-10
        full = np.linalg.norm(seq.columns @ partner.columns.conj().T - np.eye(dim), 2)
        assert duality_identity_residual(seq, partner) == pytest.approx(full, rel=1e-14)

    def test_tall_pair_never_forms_the_ambient_square(self):
        seq = VectorSequence.from_columns(np.ones((3000, 1)))
        dual = minimal_dual(seq)
        peak, residual = traced_peak(lambda: duality_identity_residual(seq, dual))
        assert residual == pytest.approx(1.0, rel=1e-14)
        assert peak < 10e6  # the 3000 x 3000 complex residual alone is 144 MB

    @pytest.mark.parametrize("f, g", [
        # The nonzeros of the first two columns sit in swapped rows.
        (np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 0.5, 1.0 / 3.0])[[1, 0, 2]]),
        # Column 0 is zero in F only; G^H F holds conj(g_00) f_01 = 5.
        (np.array([[0.0, 5.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])),
        # Same rows, column 1 zero in both: G^H F - I holds -1 there, but
        # F G^H - I is 0, as every row holds a nonzero.
        (np.array([[1.0, 0.0]]), np.array([[1.0, -0.0]])),
    ], ids=["swapped-rows", "zero-in-one", "zero-in-both"])
    def test_monomial_pair_residuals_match_the_products(self, f, g):
        seq, partner = VectorSequence(f), VectorSequence(g)
        dense = np.abs(g.conj().T @ f - np.eye(f.shape[1])).max()
        assert biorthogonality_residual(seq, partner) == dense
        assert duality_identity_residual(seq, partner) == pytest.approx(
            oracles.complex_identity_residual(f, g), rel=4 * np.finfo(float).eps)


class TestCoCompleteness:
    """The minimal dual spans the system's span, so the two defects agree."""

    @staticmethod
    def defects(seq):
        return completeness_defect(seq), completeness_defect(minimal_dual(seq))

    def test_orthonormal(self):
        assert self.defects(orthonormal(5)) == (0, 0)

    def test_young(self):
        assert self.defects(young_example(4).primal) == (1, 1)

    def test_weighted_complete(self):
        assert self.defects(weighted_pair(5).primal) == (0, 0)

    def test_incomplete_random(self):
        for seed in range(6):
            assert self.defects(random_seq(seed, 9, 5)) == (4, 4)

    def test_propagates_missing_dual(self):
        with pytest.raises(NoBiorthogonalSequenceError):
            self.defects(seq_of([1, 0], [2, 0]))


class TestReconstructionShadow:
    def test_two_sided_pair_with_complete_dual_is_basis(self):
        # Square independent system: the dual route alone certifies the verdict.
        for seed in range(5):
            seq = random_seq(seed + 40, 5, 5)
            dual = minimal_dual(seq)
            assert biorthogonality_residual(seq, dual) <= 1e-8
            assert completeness_defect(dual) == 0
            assert duality_identity_residual(seq, dual) <= 1e-8
            assert classify(seq).kind is VerdictKind.RIESZ_BASIS


def old_biorthogonality_residual(seq, partner):
    cross = partner.columns.conj().T @ seq.columns
    return float(np.abs(cross - np.eye(seq.count)).max())


def old_duality_identity_residual(seq, partner):
    f, g = seq.columns, partner.columns
    if 2 * seq.count < seq.dim:
        q = np.linalg.qr(np.concatenate([f, g], axis=1))[0]
        compressed = (q.conj().T @ f) @ (g.conj().T @ q) - np.eye(q.shape[1])
        return max(float(np.linalg.norm(compressed, 2)), 1.0)
    return float(np.linalg.norm(f @ g.conj().T - np.eye(seq.dim), 2))


def columns(seed, dim, count, complex_entries):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((dim, count))
    if complex_entries:
        values = values + 1j * rng.standard_normal((dim, count))
    return VectorSequence.from_columns(values)


class TestIdentitySubtraction:
    """Every residual subtracts the identity in place, with the bits of `x - np.eye(n)`."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_the_eye_difference_with_negative_zeros(self, dtype):
        x = np.random.default_rng(3).standard_normal((5, 5)).astype(dtype)
        x[[0, 1, 2], [0, 1, 2]] = [-0.0, 1.0, -1.0]
        if dtype is complex:
            x[3, 3] = complex(-0.0, -0.0)
            x[4, 4] = complex(1.0, -0.0)
            x[0, 1] = complex(-0.0, -0.0)
        expected = x - np.eye(5)
        got = _minus_identity(x)
        assert got is x
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("dim, count", [(7, 7), (9, 3)], ids=["square", "tall"])
    def test_residuals_keep_their_bits(self, dim, count, complex_entries):
        seq = columns(10 + dim, dim, count, complex_entries)
        # The minimal dual and an unrelated partner, whose tall identity residual exceeds 1.
        for partner in (minimal_dual(seq), columns(20 + dim, dim, count, complex_entries)):
            assert (partner.columns.dtype == complex) is complex_entries
            new = biorthogonality_residual(seq, partner)
            assert new.hex() == old_biorthogonality_residual(seq, partner).hex()
            new = duality_identity_residual(seq, partner)
            assert new.hex() == old_duality_identity_residual(seq, partner).hex()
        assert duality_identity_residual(seq, partner) > 1.0


class TestBlockResidual:
    """A residual R = F G^H - I that is not tall is normed as it is, after one
    scan of its nonzeros: with at most one nonzero per column, or per row, by
    its row or column norms, else by the SVD."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 9), data=st.data())
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_injected_zero_rows_and_columns_keep_the_norm(self, complex_entries, seed, dim, data):
        # Row i of F equal to e_i^T, or column j equal to e_j, makes that row
        # or column of R = F I - I exactly zero.
        f = columns(seed, dim, dim, complex_entries).columns.copy()
        rows = data.draw(hnp.arrays(bool, dim), label="zero rows")
        cols = data.draw(hnp.arrays(bool, dim), label="zero columns")
        f[rows] = np.eye(dim)[rows]
        f[:, cols] = np.eye(dim)[:, cols]
        seq, partner = VectorSequence(f), VectorSequence(np.eye(dim))
        formed = _minus_identity(seq.columns @ partner.columns.conj().T)
        dense = float(np.linalg.svd(formed, compute_uv=False)[0])
        residual = duality_identity_residual(seq, partner)
        # Each SVD errs by up to about dim * eps * sigma: 1.0 of that, 7 ulps,
        # between the two over 20000 random cases of these shapes.
        assert abs(residual - dense) <= 2 * dim * np.finfo(float).eps * dense

    @pytest.mark.parametrize("units", [[1.0, -1.0, 1.0, -1.0], [1j, -1.0, -1j, 1.0]],
                             ids=["real", "complex"])
    @pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "permuted"])
    def test_all_zero_residual_reads_zero(self, units, dense):
        # u conj(u) is exactly 1 for u in {1, -1, 1j, -1j}, so F F^H = I exactly.
        f = np.diag(np.array(units, dtype=complex))
        if dense:
            f = f[:, [2, 0, 3, 1]]
        seq = VectorSequence(f)
        assert (seq.columns.dtype == complex) is (units[0] == 1j)
        assert duality_identity_residual(seq, seq) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), length=st.integers(2, 40),
           scale=st.sampled_from([1e-200, 1e150]), row=st.booleans())
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_one_row_or_column_is_its_euclidean_norm(self, complex_entries, seed, length, scale, row):
        # The norm is within one ulp of the exact Euclidean norm; LAPACK's
        # singular value is itself up to about 3.3 ulps from it at these
        # scales, so the two agree within 4 ulps.
        v = columns(seed, length, 1, complex_entries).columns[:, 0] * scale
        matrix = v[None, :] if row else v[:, None]
        sigma = float(_sigma(matrix, _nonzeros(matrix))[0])
        svd = float(np.linalg.svd(matrix, compute_uv=False)[0])
        assert abs(sigma - svd) <= 4 * math.ulp(svd)
        square = sum(Fraction(x) ** 2 for x in np.concatenate([v.real, np.imag(v)]))
        ulp = Fraction(math.ulp(sigma))
        assert (Fraction(sigma) - ulp) ** 2 <= square <= (Fraction(sigma) + ulp) ** 2

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_dense_residual_reaches_sigma_uncopied(self, complex_entries, monkeypatch):
        seq = columns(31, 8, 8, complex_entries)
        partner = minimal_dual(seq)
        formed, seen = [], []
        monkeypatch.setattr(duals, "_minus_identity",
                            lambda square: formed.append(_minus_identity(square)) or formed[-1])
        monkeypatch.setattr(duals, "_sigma",
                            lambda matrix, nonzeros: seen.append(matrix) or _sigma(matrix, nonzeros))
        residual = duality_identity_residual(seq, partner)
        assert len(formed) == len(seen) == 1 and seen[0] is formed[0]
        assert residual.hex() == old_duality_identity_residual(seq, partner).hex()

    @pytest.mark.parametrize("vectors, complement", [(7, 1), (15, 1), (63, 1), (12, 2), (30, 3)])
    def test_young_residual_is_read_from_its_complement_rows(self, vectors, complement):
        # R is nonzero only in its complement rows, one nonzero per column:
        # its norm is the largest of their norms, with no SVD, the same bits
        # as the complement_dim x dim block's own.
        pair = young_general(vectors, vectors, complement)
        with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("svd ran")):
            residual = duality_identity_residual(pair.primal, pair.partner)
            block = _minus_identity(pair.primal.columns @ pair.partner.columns.conj().T)[:complement]
            assert residual == float(_sigma(block, _nonzeros(block))[0])
        expected = oracles.complex_identity_residual(pair.primal.columns, pair.partner.columns)
        assert residual == pytest.approx(expected, rel=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("size", [4, 16, 64, 256])
    def test_young_example_residual_is_exactly_sqrt_size(self, size):
        # One complement row of size entries +-1: the norm of a perfect square's
        # worth of ones is exact.
        pair = young_example(size - 1)
        assert duality_identity_residual(pair.primal, pair.partner) == math.isqrt(size)
