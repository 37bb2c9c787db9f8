import numpy as np
import pytest

import oracles
from rieszlab import (
    CriteriaDisagreementError,
    DimensionError,
    GaborDiscretization,
    IllConditionedError,
    NotARieszBasisError,
    VectorSequence,
    VerdictKind,
    alternating_weighted_pair,
    bessel_bound,
    biorthogonality_residual,
    classify,
    completeness_defect,
    duality_identity_residual,
    equivalent_inner_product,
    gaussian_gabor,
    gram_spectrum,
    lattice_points,
    minimal_dual,
    orthonormal,
    random_riesz,
    riesz_bounds,
    riesz_from_operator,
    span_distance,
    weighted_pair,
    young_example,
    young_general,
)
from rieszlab.diagnostics import _gram_route
from rieszlab.seqcore import RANK_TOL_SCALE, _gram_eigenvalues, _rank_scale, _singular_values


def seq_of(*vectors):
    return VectorSequence.from_columns(np.column_stack([np.asarray(v, dtype=complex) for v in vectors]))


def e(i, n):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


class TestBesselBound:
    def test_orthonormal(self):
        for n in (1, 3, 7):
            assert bessel_bound(orthonormal(n)) == pytest.approx(1.0)

    def test_growing_weights(self):
        seq = VectorSequence.from_columns(np.diag(np.arange(1.0, 6.0)))
        # oracle: largest eigenvalue of the explicit diagonal Gram
        expected = np.linalg.eigvalsh(np.diag(np.arange(1.0, 6.0) ** 2))[-1]
        assert expected == 25.0
        assert bessel_bound(seq) == pytest.approx(25.0, rel=1e-12)

    def test_young(self):
        expected = np.linalg.eigvalsh(np.eye(4) + np.ones((4, 4)))[-1]
        assert expected == pytest.approx(5.0, rel=1e-14)
        assert bessel_bound(young_example(4).primal) == pytest.approx(5.0, rel=1e-12)


class TestRieszBounds:
    def test_orthonormal(self):
        assert riesz_bounds(orthonormal(4)) == pytest.approx((1.0, 1.0))

    def test_diagonal(self):
        seq = VectorSequence.from_columns(np.diag([1.0, 0.5, 1.0 / 3.0]))
        lower, upper = riesz_bounds(seq)
        assert lower == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert upper == pytest.approx(1.0, rel=1e-12)

    def test_repeated_column(self):
        lower, upper = riesz_bounds(seq_of(e(0, 2), e(0, 2)))
        # oracle: eigenvalues of [[1,1],[1,1]] are {0, 2}
        assert lower == pytest.approx(0.0, abs=1e-14)
        assert upper == pytest.approx(2.0, rel=1e-12)

    def test_wide_system_has_zero_lower_bound(self):
        seq = VectorSequence.from_columns(oracles.random_columns(0, 3, 5))
        assert riesz_bounds(seq).lower == 0.0


class TestCompletenessDefect:
    def test_orthonormal(self):
        assert completeness_defect(orthonormal(4)) == 0

    def test_young_primal(self):
        assert completeness_defect(young_example(4).primal) == 1

    def test_young_partner(self):
        assert completeness_defect(young_example(4).partner) == 1


class TestSpanDistance:
    def test_vector_in_span(self):
        seq = seq_of([1, 0, 0], [1, 1, 0])
        assert span_distance(seq, [3, 2, 0]) <= 1e-12

    @pytest.mark.parametrize("n, expected", [(4, 1 / np.sqrt(5)), (9, 1 / np.sqrt(10))])
    def test_young_closed_form(self, n, expected):
        seq = young_example(n).primal
        target = e(0, n + 1)
        assert span_distance(seq, target) == pytest.approx(expected, rel=1e-10)
        assert oracles.projector_distance(seq.columns, target) == pytest.approx(expected, rel=1e-10)

    def test_matches_projector_oracle(self):
        for seed in range(6):
            cols = oracles.random_columns(seed, 7, 3)
            seq = VectorSequence.from_columns(cols)
            h = oracles.random_columns(seed + 100, 7, 1)[:, 0]
            assert span_distance(seq, h) == pytest.approx(
                oracles.projector_distance(cols, h), rel=1e-10, abs=1e-12
            )

    def test_bounded_by_norm(self):
        for seed in range(10):
            cols = oracles.random_columns(seed, 5, 2)
            seq = VectorSequence.from_columns(cols)
            h = oracles.random_columns(seed + 55, 5, 1)[:, 0]
            assert span_distance(seq, h) <= np.linalg.norm(h) * (1 + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            span_distance(orthonormal(3), [1, 2])

    # F = Q1 diag(1, ..., 1, sigma) Q2 with sigma_max = 1, so the rank
    # threshold is n * RANK_TOL_SCALE: just above it F is complete and the
    # distance is exactly 0; just below it one direction is dropped.
    @pytest.mark.parametrize("factor, defect", [(1.001, 0), (0.999, 1)])
    def test_decided_at_the_rank_threshold(self, factor, defect):
        n = 10
        q1, q2 = (np.linalg.qr(oracles.random_columns(seed, n, n))[0] for seed in (41, 42))
        sigma = np.ones(n)
        sigma[-1] = factor * n * RANK_TOL_SCALE
        cols = (q1 * sigma) @ q2
        seq = VectorSequence.from_columns(cols)
        h = oracles.random_columns(43, n, 1)[:, 0]
        assert completeness_defect(seq) == defect
        if defect == 0:
            assert span_distance(seq, h) == 0.0
        else:
            expected = oracles.projector_distance(cols, h)
            assert expected > 0.1
            assert span_distance(seq, h) == pytest.approx(expected, rel=1e-10)


class TestGramSpectrum:
    def test_orthonormal(self):
        spectrum = gram_spectrum(orthonormal(3))
        assert spectrum.lambda_min == pytest.approx(1.0)
        assert spectrum.lambda_max == pytest.approx(1.0)
        assert spectrum.bijective

    def test_repeated_column(self):
        spectrum = gram_spectrum(seq_of(e(0, 2), e(0, 2)))
        assert abs(spectrum.lambda_min) <= 1e-12
        assert spectrum.lambda_max == pytest.approx(2.0, rel=1e-12)
        assert not spectrum.bijective

    def test_random_invertible_is_bijective(self):
        for seed in range(5):
            v = oracles.random_columns(seed, 6, 6)
            spectrum = gram_spectrum(VectorSequence.from_columns(v))
            assert spectrum.lambda_min > 0
            assert spectrum.bijective


def _wide_systems():
    rng = np.random.default_rng(31)
    return {
        "complex6x15": VectorSequence.from_columns(oracles.random_columns(31, 6, 15)),
        "real4x40": VectorSequence.from_columns(rng.standard_normal((4, 40))),
        "rank2of5x9": VectorSequence.from_columns(
            rng.standard_normal((5, 2)) @ rng.standard_normal((2, 9))
        ),
        "ones1x300": VectorSequence.from_columns(np.ones((1, 300))),
    }


class TestWideGramSide:
    """A wide system's Gram route eigensolves the dim x dim product F F^H, whose
    lambda_min is checked against sigma_dim^2 from the column route."""

    @pytest.mark.parametrize("name", sorted(_wide_systems()))
    def test_record_spectrum_is_the_dim_side(self, name):
        seq = _wide_systems()[name]
        lam = _gram_eigenvalues(seq)
        assert lam.shape == (seq.dim,)
        sigma = _singular_values(seq)
        assert abs(lam[0] - sigma[-1] ** 2) <= 1e-8 * lam[-1]
        np.testing.assert_allclose(lam[::-1], sigma**2, rtol=0, atol=1e-12 * lam[-1])

    @pytest.mark.parametrize("name", sorted(_wide_systems()))
    def test_public_lambda_min_is_exactly_zero(self, name):
        seq = _wide_systems()[name]
        spectrum = gram_spectrum(seq)
        assert spectrum.lambda_min == 0.0 and riesz_bounds(seq).lower == 0.0
        assert spectrum.lambda_max == pytest.approx(riesz_bounds(seq).upper, rel=1e-12)
        assert not spectrum.bijective
        assert classify(seq).kind is VerdictKind.LINEARLY_DEPENDENT

    @pytest.mark.parametrize("name", sorted(_wide_systems()))
    def test_raised_lambda_min_disagrees(self, name):
        # The dim-side lambda_min is a real cross-check: moving it off sigma_dim^2
        # by more than the two-route tolerance is caught.
        seq = _wide_systems()[name]
        lam = np.array(_gram_eigenvalues(_wide_systems()[name]))
        lam[0] += 1e-6 * lam[-1]
        seq._record.fill("gram_eigenvalues", lambda: lam)
        with pytest.raises(CriteriaDisagreementError, match="Gram spectrum"):
            classify(seq)


class TestBiorthogonalityResidual:
    def test_orthonormal_self_dual(self):
        seq = orthonormal(4)
        assert biorthogonality_residual(seq, seq) == 0.0

    def test_weighted_pair(self):
        pair = weighted_pair(6)
        assert biorthogonality_residual(pair.primal, pair.partner) <= 1e-15

    def test_young_pair(self):
        pair = young_example(4)
        assert biorthogonality_residual(pair.primal, pair.partner) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            biorthogonality_residual(orthonormal(3), orthonormal(4))


class TestEquivalentInnerProduct:
    def test_orthonormal(self):
        np.testing.assert_allclose(equivalent_inner_product(orthonormal(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        seq = VectorSequence.from_columns(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(
            equivalent_inner_product(seq), np.diag([0.25, 1.0]), atol=1e-14
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_makes_system_orthonormal(self, seed):
        cols = oracles.random_columns(seed, 8, 8)
        seq = VectorSequence.from_columns(cols)
        w = equivalent_inner_product(seq)
        w_gram = cols.conj().T @ w @ cols
        assert np.abs(w_gram - np.eye(8)).max() <= 1e-8

    def test_rejects_incomplete_system(self):
        with pytest.raises(NotARieszBasisError):
            equivalent_inner_product(young_example(4).primal)

    def test_rejects_dependent_system(self):
        with pytest.raises(NotARieszBasisError):
            equivalent_inner_product(seq_of(e(0, 2), e(0, 2)))

    def test_refuses_a_w_outside_the_identity_contract(self):
        # A Riesz basis with condition number 1e5, whose SVD-built W leaves a
        # W-Gram identity residual of 3.5e-8, above the 1e-8 contract.
        rng = np.random.default_rng(0)
        q1, q2 = (
            np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))[0]
            for _ in range(2)
        )
        seq = VectorSequence.from_columns(q1 @ np.diag(np.geomspace(1, 1e-5, 12)) @ q2)
        assert classify(seq).kind is VerdictKind.RIESZ_BASIS
        with pytest.raises(IllConditionedError, match="identity residual"):
            equivalent_inner_product(seq)


class TestClassify:
    def test_orthonormal(self):
        verdict = classify(orthonormal(3))
        assert verdict.kind is VerdictKind.RIESZ_BASIS
        assert verdict.bounds.completeness_defect == 0
        assert verdict.bounds.conditioning == pytest.approx(1.0)

    def test_repeated_column(self):
        verdict = classify(seq_of(e(0, 2), e(0, 2)))
        assert verdict.kind is VerdictKind.LINEARLY_DEPENDENT
        assert verdict.bounds.conditioning == np.inf

    def test_young_incomplete(self):
        verdict = classify(young_example(4).primal)
        assert verdict.kind is VerdictKind.RIESZ_SEQUENCE_INCOMPLETE
        assert verdict.bounds.riesz_lower == pytest.approx(1.0, rel=1e-10)
        assert verdict.bounds.completeness_defect == 1

    def test_routes_agree_on_random_mix(self):
        # Small-scale version of the full cross-route sweep in the acceptance
        # module: verdicts must match the construction with no disagreements.
        for i in range(200):
            rng = np.random.default_rng(1000 + i)
            n = int(rng.integers(2, 20))
            kind = i % 4
            if kind == 0:
                seq = VectorSequence.from_columns(oracles.random_columns(i, n, n))
                expected = VerdictKind.RIESZ_BASIS
            elif kind == 1:
                r = int(rng.integers(1, n))
                base = oracles.random_columns(i, n, r)
                mix = rng.standard_normal((r, 2))
                seq = VectorSequence.from_columns(np.concatenate([base, base @ mix], axis=1))
                expected = VerdictKind.LINEARLY_DEPENDENT
            elif kind == 2:
                m = int(rng.integers(1, n))
                seq = VectorSequence.from_columns(oracles.random_columns(i, n, m))
                expected = VerdictKind.RIESZ_SEQUENCE_INCOMPLETE
            else:
                seq = VectorSequence.from_columns(oracles.random_columns(i, n, n + 3))
                expected = VerdictKind.LINEARLY_DEPENDENT
            assert classify(seq).kind is expected


class TestSharedSystem:
    def test_threads_sharing_one_system_agree(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from rieszlab import minimal_dual

        cols = oracles.random_columns(21, 40, 40)
        expected = classify(VectorSequence.from_columns(cols))
        shared = VectorSequence.from_columns(cols)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(lambda: (classify(shared), minimal_dual(shared)))
                           for _ in range(12)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(verdict == expected for verdict, _ in results)
        # Racing first reads keep one stored partner, which every caller gets.
        assert len({id(partner) for _, partner in results}) == 1
        assert minimal_dual(shared) is results[0][1]


class TestInvariants:
    def test_upper_bound_routes_agree(self):
        for seed in range(10):
            seq = VectorSequence.from_columns(oracles.random_columns(seed, 6, 9))
            b = bessel_bound(seq)
            assert b == pytest.approx(riesz_bounds(seq).upper, rel=1e-8)
            assert b == pytest.approx(gram_spectrum(seq).lambda_max, rel=1e-8)

    def test_invertible_operator_bounds(self):
        for seed in range(5):
            v = oracles.random_columns(seed, 7, 7)
            sigma = np.linalg.svd(v, compute_uv=False)
            verdict = classify(VectorSequence.from_columns(v))
            assert verdict.kind is VerdictKind.RIESZ_BASIS
            assert verdict.bounds.riesz_lower == pytest.approx(sigma[-1] ** 2, rel=1e-8)
            assert verdict.bounds.bessel_upper == pytest.approx(sigma[0] ** 2, rel=1e-8)

    def test_unitary_invariance(self):
        cols = oracles.random_columns(3, 6, 4)
        seq = VectorSequence.from_columns(cols)
        q, _ = np.linalg.qr(oracles.random_columns(17, 6, 6))
        rotated = VectorSequence.from_columns(q @ cols)
        base = riesz_bounds(seq)
        moved = riesz_bounds(rotated)
        assert moved.lower == pytest.approx(base.lower, rel=1e-10)
        assert moved.upper == pytest.approx(base.upper, rel=1e-10)
        assert completeness_defect(rotated) == completeness_defect(seq)

    @pytest.mark.parametrize("alpha", [2.0, 0.25, 1.0 + 2.0j, -3.0j])
    def test_scaling_covariance(self, alpha):
        cols = oracles.random_columns(5, 5, 5)
        base = riesz_bounds(VectorSequence.from_columns(cols))
        scaled = riesz_bounds(VectorSequence.from_columns(alpha * cols))
        assert scaled.lower == pytest.approx(abs(alpha) ** 2 * base.lower, rel=1e-10)
        assert scaled.upper == pytest.approx(abs(alpha) ** 2 * base.upper, rel=1e-10)


def _unitary(rng, k, real=False):
    """A seeded unitary factor; real=True gives a real orthogonal one."""
    a = rng.standard_normal((k, k))
    q, _ = np.linalg.qr(a if real else a + 1j * rng.standard_normal((k, k)))
    return q


def _sigma_band_system(m, shape, exponent, real=False):
    """F = Q1 diag(1, ..., 1, sigma) Q2 with sigma = 10**-exponent, seeded Q1, Q2."""
    rng = np.random.default_rng((m, exponent, ("tall", "square", "wide").index(shape)))
    dim, count = {"tall": (m + 2, m), "square": (m, m), "wide": (m, m + 2)}[shape]
    diag = np.zeros((dim, count))
    diag[np.arange(m), np.arange(m)] = 1.0
    diag[m - 1, m - 1] = 10.0**-exponent
    return VectorSequence.from_columns(
        _unitary(rng, dim, real) @ diag @ _unitary(rng, count, real)
    )


def _dual_checks(seq):
    """Whether classify's dual route checks seq (False: it abstains, because
    the minimal dual or its SVD is refused)."""
    try:
        riesz_bounds(minimal_dual(seq))
    except IllConditionedError:
        return False
    return True


def _route_votes(seq):
    """The column verdict, the Gram vote (None: abstains) and, for independent
    columns, whether the dual route checks (False: abstains)."""
    kind = classify(seq).kind
    gram_vote = _gram_route(seq, _gram_eigenvalues(seq))[1]
    if kind is VerdictKind.LINEARLY_DEPENDENT:
        return kind, gram_vote
    return kind, gram_vote, _dual_checks(seq)


def _in_rank_band(seq, exponent):
    """Whether sigma = 10**-exponent lies within a factor 2 of the rank threshold,
    where the last ulp of either arithmetic's SVD can decide the verdict."""
    rank_tol = _rank_scale(seq.columns.shape, float(_singular_values(seq)[0]))
    return rank_tol / 2 <= 10.0**-exponent <= 2 * rank_tol


class TestRouteAbstention:
    """Across the band where the Gram route cannot resolve what the column
    route can, the Gram route abstains instead of disagreeing."""

    @pytest.mark.parametrize("shape", ["tall", "square", "wide"])
    @pytest.mark.parametrize("m", [2, 10, 100])
    def test_sigma_band_sweep_returns_a_verdict(self, m, shape):
        for exponent in range(4, 14):
            seq = _sigma_band_system(m, shape, exponent)
            verdict = classify(seq)
            rank_tol = max(seq.dim, seq.count) * 1e-12
            sigma = 10.0**-exponent
            if shape == "wide" or sigma < rank_tol / 2:
                assert verdict.kind is VerdictKind.LINEARLY_DEPENDENT
            elif sigma > 2 * rank_tol:
                assert verdict.kind is (
                    VerdictKind.RIESZ_BASIS if shape == "square"
                    else VerdictKind.RIESZ_SEQUENCE_INCOMPLETE
                )

    @pytest.mark.parametrize("shape", ["tall", "square", "wide"])
    @pytest.mark.parametrize("m", [2, 10, 100])
    def test_real_factors_vote_as_complex_factors(self, m, shape):
        for exponent in range(4, 14):
            real = _sigma_band_system(m, shape, exponent, real=True)
            assert real.columns.dtype == np.float64
            votes = [_route_votes(real), _route_votes(_sigma_band_system(m, shape, exponent))]
            if _in_rank_band(real, exponent):
                # On the threshold each arithmetic may decide either way, but
                # its Gram vote must not contradict its own column verdict.
                assert all(vote[1] in (None, vote[0]) for vote in votes)
            else:
                assert votes[0] == votes[1]

    @pytest.mark.parametrize(
        "points, half_width",
        [(lattice_points(1, 0.6, 4), 8), (lattice_points(1, 0.4, 3), 7)],
        ids=["b=0.6", "b=0.4"],
    )
    def test_gabor_near_critical_density(self, points, half_width):
        seq = gaussian_gabor(points, GaborDiscretization(half_width, 16))
        assert classify(seq).kind is VerdictKind.RIESZ_SEQUENCE_INCOMPLETE
        # The Gram route's raw reading stays what it is: unresolved, not bijective.
        assert not gram_spectrum(seq).bijective


def _geometric_basis(n, bound_ratio, seed=0):
    """Q1 diag(sigma) Q2 with sigma geometric from 1 down to sqrt(bound_ratio), so A/B = bound_ratio."""
    rng = np.random.default_rng(seed)
    sigma = np.geomspace(1.0, np.sqrt(bound_ratio), n)
    return VectorSequence.from_columns(_unitary(rng, n) * sigma @ _unitary(rng, n))


def _scale_kept_sigma(seq, index, factor=1 + 1e-6):
    """Replace one of seq's kept singular values by a scaled copy."""
    sigma = np.array(_singular_values(seq))
    sigma[index] *= factor
    vars(seq._record)["sigma"] = sigma


class TestDualIdentityRoute:
    """The dual route checks A_F B_G = 1 and B_F A_G = 1 on the minimal dual."""

    def test_fresh_system_passes(self):
        seq = _geometric_basis(64, 1e-3)
        assert classify(seq).kind is VerdictKind.RIESZ_BASIS
        assert _dual_checks(seq)

    def test_scaled_primal_sigma_min_is_caught(self):
        # F's own two routes cannot see this: 2e-6 A is below 1e-8 B.
        seq = _geometric_basis(64, 1e-3)
        _scale_kept_sigma(seq, -1)
        with pytest.raises(CriteriaDisagreementError, match="A_F B_G = 1"):
            classify(seq)

    @pytest.mark.parametrize("index", [0, -1], ids=["sigma_max", "sigma_min"])
    def test_scaled_dual_sigma_is_caught(self, index):
        seq = _geometric_basis(64, 1e-3)
        _scale_kept_sigma(minimal_dual(seq), index)
        with pytest.raises(CriteriaDisagreementError, match="minimal dual misses"):
            classify(seq)

    def test_incomplete_system_is_checked(self):
        seq = young_general(9, 6, complement_dim=3).primal
        assert classify(seq).kind is VerdictKind.RIESZ_SEQUENCE_INCOMPLETE
        assert _dual_checks(seq)

    def test_abstains_where_the_dual_is_refused(self):
        seq = _geometric_basis(64, 1e-10)
        with pytest.raises(IllConditionedError):
            minimal_dual(seq)
        assert classify(seq).kind is VerdictKind.RIESZ_BASIS


class TestRepresentableScale:
    @pytest.mark.parametrize("scale", [1e160, 1e-150, 1e-170, 1e-310])
    def test_out_of_range_scale_is_refused(self, scale):
        seq = VectorSequence.from_columns(scale * random_riesz(6, seed=3).columns)
        with pytest.raises(IllConditionedError, match="out of range"):
            classify(seq)
        with pytest.raises(IllConditionedError, match="out of range"):
            minimal_dual(seq)

    @pytest.mark.parametrize("scale", [1e150, 1e-140])
    def test_in_range_scale_keeps_the_verdict(self, scale):
        seq = VectorSequence.from_columns(scale * random_riesz(6, seed=3).columns)
        assert classify(seq).kind is VerdictKind.RIESZ_BASIS

    def test_zero_system_is_dependent(self):
        assert classify(VectorSequence.from_columns(np.zeros((3, 2)))).kind is (
            VerdictKind.LINEARLY_DEPENDENT
        )


def _real_gallery():
    """Every real named system, primal and designated partner, plus a dense real
    basis with singular values spread over [1, 2]."""
    systems = {"orthonormal": (orthonormal(12), None)}
    for name, pair in [
        ("weighted", weighted_pair(12)),
        ("alternating", alternating_weighted_pair(13)),
        ("young", young_example(9)),
        ("youngGeneral", young_general(7, 5, complement_dim=2)),
    ]:
        systems[name] = (pair.primal, pair.partner)
        systems[name + "Partner"] = (pair.partner, pair.primal)
    q = np.linalg.qr(np.random.default_rng(23).standard_normal((16, 16)))[0]
    systems["realOperator"] = (riesz_from_operator(q * np.linspace(1.0, 2.0, 16)), None)
    return systems


_REAL_GALLERY = _real_gallery()
#: Absolute tolerance for values at rounding level (exact answer 0 or 1).
_ROUNDING = 64 * np.finfo(float).eps


class TestRealArithmeticAgreement:
    """Real systems are factored in real arithmetic; every kernel output agrees
    with complex arithmetic on the same columns to 1e-13 of its scale."""

    @staticmethod
    def close(actual, expected):
        expected = np.asarray(expected)
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-13 * np.abs(expected).max())

    @pytest.mark.parametrize("name", sorted(_REAL_GALLERY))
    def test_spectra_and_dual(self, name):
        seq, _ = _REAL_GALLERY[name]
        assert seq.columns.dtype == np.float64  # the real path is the one under test
        self.close(_singular_values(seq), oracles.complex_singular_values(seq.columns))
        self.close(_gram_eigenvalues(seq), oracles.complex_gram_eigenvalues(seq.columns))
        self.close(minimal_dual(seq).columns, oracles.complex_minimal_dual(seq.columns))

    @pytest.mark.parametrize("name", sorted(_REAL_GALLERY))
    def test_span_distances(self, name):
        seq, _ = _REAL_GALLERY[name]
        rng = np.random.default_rng(5)
        for probe in (e(0, seq.dim).real, rng.standard_normal(seq.dim)):
            expected = oracles.complex_lstsq_distance(seq.columns, probe)
            tol = max(1e-13 * expected, _ROUNDING * np.linalg.norm(probe))
            assert span_distance(seq, probe) == pytest.approx(expected, rel=0, abs=tol)

    @pytest.mark.parametrize("name", sorted(_REAL_GALLERY))
    def test_identity_residuals(self, name):
        seq, partner = _REAL_GALLERY[name]
        for other in filter(None, (partner, minimal_dual(seq))):
            expected = oracles.complex_identity_residual(seq.columns, other.columns)
            tol = max(1e-13 * expected, _ROUNDING)
            assert duality_identity_residual(seq, other) == pytest.approx(expected, rel=0, abs=tol)
