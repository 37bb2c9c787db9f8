import numpy as np
import pytest

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
)
from rieszlab.duals import _minus_identity
from rieszlab.seqcore import _rank


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
