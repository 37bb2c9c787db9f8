import math
import pickle

import numpy as np
import pytest

import oracles
from rieszlab import generators, matrixio
from rieszlab import (
    DimensionError,
    GaborDiscretization,
    PointSet2D,
    TruncationError,
    VectorSequence,
    VerdictKind,
    als_point_set,
    alternating_weighted_pair,
    bessel_bound,
    biorthogonality_residual,
    classify,
    gaussian_gabor,
    lattice_points,
    minimal_dual,
    orthonormal,
    punctured_lattice,
    random_riesz,
    span_distance,
    weighted_pair,
    young_example,
    young_general,
)
from rieszlab.seqcore import _gram_entries, _singular_values

GAUSS_NORM = 2.0 ** -0.25  # L2 norm of exp(-pi x^2)
EPS = np.finfo(float).eps
#: A sampled Gabor entry lies within this many eps * (1 + 2 pi |mu| X) times
#: its modulus of the exact phase at -X + l/s; both the phase table and the
#: dense per-node formula stay below 1.4 on the sets tested here.
PHASE_ERROR_BOUND = 4.0
#: The absolute floor of that bound, for envelopes that underflow.
PHASE_ERROR_FLOOR = 4 * np.finfo(float).smallest_subnormal

_JITTER = np.array(lattice_points(1.0, 1.0, 2).nodes)
_JITTER += np.random.default_rng(7).uniform(-0.2, 0.2, _JITTER.shape)
#: Jittered nodes together with their mirror images (tau, -mu).
SYMMETRIC_JITTERED = PointSet2D(tuple((t, s * m) for t, m in _JITTER for s in (1.0, -1.0)))
#: Two pairs, one of them (-0.0, mu), (0.0, -mu), and a real node (tau, -0.0).
SIGNED_ZERO_PAIRS = PointSet2D(((-0.0, 1.5), (1.0, 2.0), (1.0, -0.0), (0.0, -1.5), (1.0, -2.0)))


class _Draws:
    """Stands in for a numpy Generator, handing out the given standard normal draws in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, size=None, out=None):
        draw = np.array(self.draws.pop(0), dtype=float)
        if out is None:
            return draw
        out[...] = draw
        return out


def phase_errors(columns, points, disc, rows):
    """Each entry's distance from envelope * exact phase, in units of
    eps * (1 + 2 pi |mu| X) * envelope + PHASE_ERROR_FLOOR."""
    taus, mus = np.array(points.nodes).T
    envelope = disc.normalization * np.exp(-np.pi * (disc.grid()[rows, None] - taus) ** 2)
    keys, index = np.unique(mus, return_inverse=True)
    exact = envelope * oracles.exact_gabor_phases(keys, disc, rows)[:, index]
    scale = EPS * (1.0 + 2.0 * np.pi * np.abs(mus) * disc.half_width) * envelope
    return np.abs(columns[rows] - exact) / (scale + PHASE_ERROR_FLOOR)


def assert_phase_contract(points, disc, reference):
    """`gaussian_gabor(points, disc)` meets PHASE_ERROR_BOUND on every row, and
    its largest error is at most twice that of the reference columns."""
    rows = np.arange(disc.sample_count)
    built = phase_errors(gaussian_gabor(points, disc).columns, points, disc, rows)
    assert built.max() <= PHASE_ERROR_BOUND
    assert built.max() <= 2.0 * phase_errors(reference, points, disc, rows).max()


def pair_systems(pair):
    return [pair.primal, pair.partner]


def assert_columns_adopted(build, monkeypatch, dtype=np.complex128):
    """`build()` returns sequences whose columns are the `dtype` arrays handed
    to `VectorSequence._adopt`, frozen in place: no copy was made."""
    adopted = []
    adopt = VectorSequence._adopt.__func__
    monkeypatch.setattr(
        VectorSequence, "_adopt",
        classmethod(lambda cls, columns: adopted.append(columns) or adopt(cls, columns)),
    )
    systems = build()
    assert len(adopted) == len(systems)
    for seq, array in zip(systems, adopted):
        columns = seq.columns
        assert columns is array and columns.flags.owndata
        assert columns.flags.c_contiguous and columns.dtype == dtype
        assert not columns.flags.writeable


class TestBasicGenerators:
    def test_orthonormal(self):
        assert np.array_equal(orthonormal(1).columns, [[1.0]])
        np.testing.assert_array_equal(orthonormal(3).columns, np.eye(3))
        np.testing.assert_array_equal(_gram_entries(orthonormal(5)), np.eye(5))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: orthonormal(0), "^n must be >= 1$"),
            (lambda: weighted_pair(0), "^n must be >= 1$"),
            (lambda: alternating_weighted_pair(0), "^n must be >= 1$"),
            (lambda: PointSet2D(()), "^a point set needs at least one node$"),
        ],
        ids=["orthonormal", "weighted", "alternating", "pointSet"],
    )
    def test_an_empty_system_is_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize(
        "build, dtype",
        [
            (lambda: [orthonormal(5)], np.float64),
            (lambda: [random_riesz(6, seed=7)], np.complex128),
            (lambda: pair_systems(weighted_pair(5)), np.float64),
            (lambda: pair_systems(alternating_weighted_pair(5)), np.float64),
            (lambda: pair_systems(young_example(4)), np.float64),
            (lambda: pair_systems(young_general(5, 4, complement_dim=2)), np.float64),
        ],
        ids=["orthonormal", "randomRiesz", "weighted", "alternating", "young", "youngGeneral"],
    )
    def test_generators_own_their_columns_without_a_copy(self, build, dtype, monkeypatch):
        assert_columns_adopted(build, monkeypatch, dtype)

    @pytest.mark.parametrize(
        "build, dtype",
        [
            (lambda: young_general(5, 4, complement_dim=2).primal, np.float64),
            (lambda: random_riesz(6, seed=7), np.complex128),
        ],
        ids=["real", "complex"],
    )
    def test_minimal_dual_owns_its_columns_without_a_copy(self, build, dtype, monkeypatch):
        seq = build()
        assert_columns_adopted(lambda: [minimal_dual(seq)], monkeypatch, dtype)

    def test_random_riesz_deterministic(self):
        a = random_riesz(6, seed=7)
        b = random_riesz(6, seed=7)
        np.testing.assert_array_equal(a.columns, b.columns)
        assert classify(a).kind is VerdictKind.RIESZ_BASIS

    @pytest.mark.parametrize("n", [*range(1, 41), 255, 256, 512])
    def test_random_riesz_bits_match_the_one_line_draw(self, n):
        for seed in (0, (11, n), (11, n, 2)):
            expected = oracles.random_riesz_columns(n, seed)
            assert np.array_equal(random_riesz(n, seed=seed).columns.view(np.uint64),
                                  expected.view(np.uint64)), seed

    def test_draw_keeps_the_sign_of_each_zero(self):
        # numpy's ziggurat can return -0.0: every sign of zero in x and in y,
        # beside nonzero values of both signs, gives the one-line draw's bits.
        zeros = [-0.0, 0.0]
        pairs = [(x, y) for x in zeros + [1.5, -2.5] for y in zeros + [0.75, -1.25]]
        x = np.array([p[0] for p in pairs]).reshape(4, 4)
        y = np.array([p[1] for p in pairs]).reshape(4, 4)
        expected = oracles.gaussian_draw(_Draws(x, y), 4)
        assert np.array_equal(generators._complex_gaussian(_Draws(x, y), 4).view(np.uint64),
                              expected.view(np.uint64))

    def test_random_riesz_condition_cap(self):
        for seed in range(10):
            seq = random_riesz(12, seed=seed)
            sigma = np.linalg.svd(seq.columns, compute_uv=False)
            assert sigma[0] / sigma[-1] <= 1e6


class TestWeightedPairs:
    def test_single_member(self):
        pair = weighted_pair(1)
        np.testing.assert_array_equal(pair.primal.columns, [[1.0]])
        np.testing.assert_array_equal(pair.partner.columns, [[1.0]])

    def test_bessel_bounds(self):
        pair = weighted_pair(5)
        assert bessel_bound(pair.primal) == pytest.approx(1.0, rel=1e-12)
        assert bessel_bound(pair.partner) == pytest.approx(25.0, rel=1e-12)

    def test_minimal_dual_is_partner(self):
        pair = weighted_pair(5)
        dual = minimal_dual(pair.primal)
        np.testing.assert_allclose(dual.columns, pair.partner.columns, atol=1e-13)

    def test_alternating_small(self):
        pair = alternating_weighted_pair(2)
        np.testing.assert_allclose(pair.primal.columns, np.diag([1.0, 2.0]))
        np.testing.assert_allclose(pair.partner.columns, np.diag([1.0, 0.5]))

    def test_alternating_bessel_bounds(self):
        pair = alternating_weighted_pair(5)
        # max over {1, 4, 1/9, 16, 1/25} and over the reciprocals squared
        assert bessel_bound(pair.primal) == pytest.approx(16.0, rel=1e-12)
        assert bessel_bound(pair.partner) == pytest.approx(25.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_alternating_biorthogonal(self, n):
        pair = alternating_weighted_pair(n)
        assert biorthogonality_residual(pair.primal, pair.partner) <= 1e-12


class TestYoungConstructions:
    def test_smallest_case(self):
        pair = young_example(1)
        np.testing.assert_array_equal(pair.primal.columns, [[1.0], [1.0]])
        np.testing.assert_array_equal(pair.partner.columns, [[0.0], [1.0]])

    def test_bessel_bounds(self):
        pair = young_example(4)
        assert bessel_bound(pair.primal) == pytest.approx(5.0, rel=1e-12)
        assert bessel_bound(pair.partner) == pytest.approx(1.0, abs=1e-14)

    def test_span_distances(self):
        pair = young_example(4)
        e1 = np.zeros(5, dtype=complex)
        e1[0] = 1.0
        assert span_distance(pair.primal, e1) == pytest.approx(1 / np.sqrt(5), rel=1e-10)
        assert span_distance(pair.partner, e1) == pytest.approx(1.0, rel=1e-12)

    def test_general_reduces_to_concrete(self):
        general = young_general(4, 4, complement_dim=1)
        concrete = young_example(4)
        np.testing.assert_array_equal(general.primal.columns, concrete.primal.columns)
        np.testing.assert_array_equal(general.partner.columns, concrete.partner.columns)

    def test_general_biorthogonal(self):
        pair = young_general(4, 4, complement_dim=2)
        assert biorthogonality_residual(pair.primal, pair.partner) == 0.0
        assert bessel_bound(pair.partner) == pytest.approx(1.0, abs=1e-14)

    def test_general_rejects_bad_split(self):
        with pytest.raises(DimensionError):
            young_general(3, 5, complement_dim=1)
        with pytest.raises(DimensionError):
            young_general(3, 3, complement_dim=0)

    def test_pair_shape_validation(self):
        from rieszlab import GeneratedPair

        with pytest.raises(DimensionError):
            GeneratedPair(orthonormal(3), orthonormal(4))

    @pytest.mark.parametrize(
        "pair_factory",
        [
            lambda: weighted_pair(7),
            lambda: alternating_weighted_pair(7),
            lambda: young_example(6),
            lambda: young_general(6, 5, complement_dim=2),
        ],
    )
    def test_designated_pairs_are_biorthogonal(self, pair_factory):
        pair = pair_factory()
        assert biorthogonality_residual(pair.primal, pair.partner) <= 1e-12


class TestPointSets:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PointSet2D(((0.0, 0.0), (0.0, 0.0)))

    def test_signed_zero_is_one_node(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            PointSet2D(((0.0, 0.0), (-0.0, 0.0)))

    def test_nodes_closer_than_squared_underflow_are_distinct(self):
        # Their squared distance underflows to 0.0; as float pairs they differ.
        assert len(PointSet2D(((0.0, 0.0), (1e-170, 0.0)))) == 2

    @pytest.mark.parametrize("cached", [(), (0,), (1,), (0, 1)], ids=["none", "first", "second", "both"])
    def test_node_analysis_cache_keeps_equality_hash_and_pickle(self, cached):
        nodes = ((0.5, -1.0), (-0.0, 2.0), (1.5, 0.0))
        points = [PointSet2D(nodes), PointSet2D(tuple(map(list, nodes)))]
        for k in cached:
            gaussian_gabor(points[k], GaborDiscretization(6.0, 8))
            assert "_split" in vars(points[k])
        assert points[0] == points[1] and hash(points[0]) == hash(points[1])
        for p in points:
            copy = pickle.loads(pickle.dumps(p))
            assert copy == p and hash(copy) == hash(p) and copy.nodes == nodes
            np.testing.assert_array_equal(copy._split[0], [0.5, -0.0, 1.5])

    def test_node_analysis_is_read_only_and_split_by_bit_pattern(self):
        points = PointSet2D(((0.0, 1.0), (-0.0, 2.0), (0.0, -0.0), (2.0, 0.0), (2.0, 1.0)))
        taus, tau_keys, tau_index, mu_keys, mu_index, partner = points._split
        assert points._split is points._split
        assert not any(a.flags.writeable for a in points._split)
        # -0.0 and 0.0 are distinct values, each with its own key.
        assert tau_keys.size == 3 and mu_keys.size == 4
        bits = np.array([0.0, -0.0, 0.0, 2.0, 2.0]).view(np.uint64)
        np.testing.assert_array_equal(taus.view(np.uint64), bits)
        np.testing.assert_array_equal(tau_keys[tau_index], bits)
        bits = np.array([1.0, 2.0, -0.0, 0.0, 1.0]).view(np.uint64)
        np.testing.assert_array_equal(mu_keys[mu_index], bits)
        # Nodes with mu = +-0 are their own partners; no other node has one.
        np.testing.assert_array_equal(partner, [-1, -1, 2, 3, -1])

    def test_node_pairing_matches_by_float_equality(self):
        # (-0.0, 1.5) pairs with (0.0, -1.5), and (1.0, -0.0) with itself.
        np.testing.assert_array_equal(SIGNED_ZERO_PAIRS._split[-1], [3, 4, 2, 0, 1])

    def test_lattice_counts(self):
        assert len(lattice_points(1.0, 1.0, 1)) == 9
        assert len(lattice_points(1.0, 1.0, 2)) == 25

    def test_punctured_counts(self):
        assert len(punctured_lattice(1)) == 8
        assert len(punctured_lattice(2)) == 24

    def test_punctured_removes_the_node(self):
        assert (1.0, 0.0) not in punctured_lattice(3).nodes
        assert (-1.0, 0.0) in punctured_lattice(3).nodes

    def test_als_nodes(self):
        points = als_point_set(1)
        expected = {
            (-1.0, 0.0),
            (1.0, 0.0),
            (0.0, math.sqrt(2)),
            (0.0, -math.sqrt(2)),
            (math.sqrt(2), 0.0),
            (-math.sqrt(2), 0.0),
        }
        assert set(points.nodes) == expected

    @pytest.mark.parametrize("n_max", [1, 2, 5])
    def test_als_count(self, n_max):
        points = als_point_set(n_max)
        assert len(points) == 2 + 4 * n_max
        assert len(set(points.nodes)) == len(points)


class TestGaborDiscretization:
    def test_grid_geometry(self):
        disc = GaborDiscretization(6.0, 16)
        assert disc.sample_count == 192
        # squared scaling times sample count recovers the window length exactly
        assert disc.normalization**2 * disc.sample_count == pytest.approx(12.0, abs=1e-12)
        x = disc.grid()
        assert x[0] == -6.0
        assert x[-1] == pytest.approx(6.0 - 1.0 / 16)
        assert np.allclose(np.diff(x), 1.0 / 16)

    def test_rejects_fractional_sample_count(self):
        with pytest.raises(ValueError):
            GaborDiscretization(6.3, 2)

    def test_fractional_half_width_with_whole_sample_count(self):
        assert GaborDiscretization(6.25, 2).sample_count == 25

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GaborDiscretization(-1.0, 16)
        with pytest.raises(ValueError):
            GaborDiscretization(6.0, 0)
        for rate in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive integer"):
                GaborDiscretization(6.0, rate)

    @pytest.mark.parametrize(
        "half_width, samples_per_unit",
        [
            (1e308, 16),
            (1e308, 1),
            (1e-12, 16),
            (1e-300, 1),
            (1 / 64, 16),
            pytest.param(6.0, 10**400, id="rate-beyond-float"),
        ],
    )
    def test_rejects_a_sample_count_that_overflows_or_is_zero(self, half_width, samples_per_unit):
        with pytest.raises(ValueError, match="finite, nonzero number of samples"):
            GaborDiscretization(half_width, samples_per_unit)

    def test_smallest_window_holds_one_sample(self):
        assert GaborDiscretization(0.5, 1).sample_count == 1
        assert GaborDiscretization(1 / 32, 16).sample_count == 1


def separated_points(seed, radius, gap, draws=400):
    """The uniform draws in [-radius, radius]^2 that keep at least `gap`
    from every draw kept before them."""
    kept = []
    for node in np.random.default_rng(seed).uniform(-radius, radius, (draws, 2)):
        if all(math.dist(node, other) >= gap for other in kept):
            kept.append(tuple(node))
    return PointSet2D(tuple(kept))


#: Point sets for the bit-identity tests: conjugation-closed lattice,
#: punctured, ALS and mirrored jittered sets, and jittered and separated sets
#: that no conjugation closes.
ASSEMBLY_SETS = {
    "lattice": lattice_points(1.0, 1.0, 3),
    "lattice-skew": lattice_points(1.25, 0.75, 3),
    "punctured": punctured_lattice(4),
    "als": als_point_set(4),
    "symmetric-jittered": SYMMETRIC_JITTERED,
    "jittered": PointSet2D(tuple(map(tuple, _JITTER))),
    "separated": separated_points(13, 3.0, 0.8),
}
#: Grids through x = 0 (X*s whole) and one that misses it, at several rates.
ASSEMBLY_DISCS = [
    GaborDiscretization(8.0, 8),
    GaborDiscretization(7.25, 10),
    GaborDiscretization(8.0, 24),
    GaborDiscretization(10.0, 40),
]


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual).view(np.uint64), np.ascontiguousarray(expected).view(np.uint64)
    )


def assert_same_bits_but_zero_signs(actual, expected):
    """Equal as values, and bit for bit wherever the value is not zero."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)
    nonzero = expected != 0.0
    assert_same_bits(actual[nonzero], expected[nonzero])


class TestInPlaceAssembly:
    """`gaussian_gabor` multiplies the gathered envelopes into the gathered
    phases in place, and `_gabor_twin` multiplies each pair's gathered phase
    parts by their envelopes; both keep the bits of the gathered-copy
    references, the twin's but for the sign of a zero."""

    @pytest.mark.parametrize("disc", ASSEMBLY_DISCS, ids=lambda d: f"{d.half_width}x{d.samples_per_unit}")
    @pytest.mark.parametrize("name", ASSEMBLY_SETS)
    def test_columns_and_twin_match_the_gathered_references(self, name, disc):
        points = ASSEMBLY_SETS[name]
        seq = gaussian_gabor(points, disc)
        assert_same_bits(seq.columns, oracles.gathered_gabor_columns(points, disc))
        twin = oracles.gathered_real_twin(seq.columns)
        closed = name not in ("jittered", "separated")
        assert (twin is not None) == closed
        if closed:
            built = generators._gabor_twin(points, disc)
            assert_same_bits_but_zero_signs(built.columns, twin)
            assert_same_bits(_singular_values(built), np.linalg.svd(twin, compute_uv=False))

    def test_underflowing_envelopes_keep_their_bits(self):
        # Shifts up to 4 in a window of half-width 40: the envelopes underflow
        # to 0.0 far from each shift and their products to +-0.0.  The system
        # is 829 KB, past the size at which the reference multiplies in place.
        points, disc = lattice_points(1.0, 1.0, 4), GaborDiscretization(40.0, 8)
        taus = np.array(points.nodes)[:, 0]
        assert (np.exp(-np.pi * (disc.grid()[:, None] - taus) ** 2) == 0.0).any()
        seq = gaussian_gabor(points, disc)
        zeros = seq.columns.imag[seq.columns.imag == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        assert_same_bits(seq.columns, oracles.gathered_gabor_columns(points, disc))
        assert_same_bits_but_zero_signs(
            generators._gabor_twin(points, disc).columns, oracles.gathered_real_twin(seq.columns)
        )

    def test_small_underflowing_system_differs_only_in_the_sign_of_zeros(self):
        # Below 256 KiB the reference multiplies the envelope first, into a
        # new array; an imaginary part whose product underflows may then take
        # the other sign of zero.  Every other bit agrees.
        points = PointSet2D(((0.0, 0.5), (7.0, -0.5), (-7.0, 0.5), (7.0, 0.5), (0.0, -0.5)))
        disc = GaborDiscretization(10.0, 24)
        columns = gaussian_gabor(points, disc).columns
        reference = oracles.gathered_gabor_columns(points, disc)
        assert columns.nbytes < 256 * 1024
        np.testing.assert_array_equal(columns, reference)
        assert_same_bits(columns.real, reference.real)
        nonzero = reference.imag != 0.0
        assert_same_bits(columns.imag[nonzero], reference.imag[nonzero])


#: The closed sets of ASSEMBLY_SETS at every grid of ASSEMBLY_DISCS, the
#: envelopes that underflow at half-width 40 (as in
#: test_underflowing_envelopes_keep_their_bits) and SIGNED_ZERO_PAIRS.
CLOSED_CASES = {
    **{f"{name}-{d.half_width}x{d.samples_per_unit}": (points, d)
       for name, points in ASSEMBLY_SETS.items() if name not in ("jittered", "separated")
       for d in ASSEMBLY_DISCS},
    "underflow": (lattice_points(1.0, 1.0, 4), GaborDiscretization(40.0, 8)),
    "signed-zero-pairs": (SIGNED_ZERO_PAIRS, GaborDiscretization(8.0, 16)),
}


class TestNodeBuiltTwin:
    """`generators._gabor_twin` builds the real twin from the node pairing,
    in the canonical layout of `oracles.gathered_real_twin`, without the
    complex system."""

    @pytest.mark.parametrize("case", CLOSED_CASES)
    def test_twin_of_a_closed_set_is_the_canonical_twin(self, case):
        points, disc = CLOSED_CASES[case]
        reference = gaussian_gabor(points, disc)
        twin = generators._gabor_twin(points, disc)
        assert twin.columns.dtype == np.float64 and twin.columns.flags.c_contiguous
        expected = oracles.gathered_real_twin(reference.columns)
        assert_same_bits_but_zero_signs(twin.columns, expected)
        assert_same_bits(_singular_values(twin), np.linalg.svd(expected, compute_uv=False))

    @pytest.mark.parametrize("name", ["jittered", "separated"])
    def test_a_set_without_a_pairing_falls_back_to_the_complex_system(self, name):
        points, disc = ASSEMBLY_SETS[name], ASSEMBLY_DISCS[0]
        assert (points._split[-1] < 0).any()
        built = generators._gabor_twin(points, disc)
        assert built.columns.dtype == np.complex128
        assert_same_bits(built.columns, gaussian_gabor(points, disc).columns)

    def test_an_unmodulated_set_is_its_envelopes(self):
        points, disc = PointSet2D(((0.0, 0.0), (1.0, -0.0), (-0.5, 0.0))), ASSEMBLY_DISCS[1]
        assert_same_bits(generators._gabor_twin(points, disc).columns, gaussian_gabor(points, disc).columns)

    def test_twin_refuses_a_node_outside_the_safe_window(self):
        with pytest.raises(TruncationError, match="safe window"):
            generators._gabor_twin(lattice_points(3.0, 1.0, 2), GaborDiscretization(8.0, 8))

    def test_twin_owns_its_array_without_a_copy(self, monkeypatch):
        assert_columns_adopted(
            lambda: [generators._gabor_twin(punctured_lattice(2), GaborDiscretization(6.0, 16))],
            monkeypatch, np.float64,
        )


class TestGaussianGabor:
    def setup_method(self):
        self.disc = GaborDiscretization(6.0, 16)

    def test_column_norm(self):
        system = gaussian_gabor(PointSet2D(((0.0, 0.0),)), self.disc)
        assert np.linalg.norm(system.columns[:, 0]) == pytest.approx(GAUSS_NORM, abs=1e-6)

    def test_column_norm_stable_under_refinement(self):
        coarse = gaussian_gabor(PointSet2D(((0.0, 0.0),)), self.disc)
        fine = gaussian_gabor(PointSet2D(((0.0, 0.0),)), GaborDiscretization(6.0, 32))
        delta = abs(
            np.linalg.norm(coarse.columns[:, 0]) - np.linalg.norm(fine.columns[:, 0])
        )
        assert delta < 1e-6

    def test_time_shift_inner_product(self):
        system = gaussian_gabor(PointSet2D(((0.0, 0.0), (1.0, 0.0))), self.disc)
        value = abs(np.vdot(system.columns[:, 1], system.columns[:, 0]))
        expected = 2.0**-0.5 * math.exp(-math.pi / 2)
        assert value == pytest.approx(expected, abs=1e-5)
        assert oracles.gaussian_inner_product(0, 0, 1, 0) == pytest.approx(expected, abs=1e-9)

    def test_frequency_shift_inner_product(self):
        system = gaussian_gabor(PointSet2D(((0.0, 0.0), (0.0, 1.0))), self.disc)
        value = abs(np.vdot(system.columns[:, 1], system.columns[:, 0]))
        expected = 2.0**-0.5 * math.exp(-math.pi / 2)
        assert value == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize(
        "node_a, node_b",
        [((0.0, 0.0), (2.0, 1.0)), ((-1.0, 0.5), (1.5, -1.0)), ((0.5, 2.0), (0.5, -2.0))],
    )
    def test_twisted_kernel_modulus(self, node_a, node_b):
        system = gaussian_gabor(PointSet2D((node_a, node_b)), self.disc)
        value = abs(np.vdot(system.columns[:, 1], system.columns[:, 0]))
        dt = node_a[0] - node_b[0]
        dm = node_a[1] - node_b[1]
        expected = 2.0**-0.5 * math.exp(-math.pi * (dt**2 + dm**2) / 2)
        assert value == pytest.approx(expected, abs=1e-5)
        quad_value = oracles.gaussian_inner_product(*node_a, *node_b)
        assert value == pytest.approx(quad_value, abs=1e-5)

    def test_rejects_unsafe_time_shift(self):
        with pytest.raises(TruncationError, match="3.5"):
            gaussian_gabor(PointSet2D(((3.5, 0.0),)), self.disc)

    def test_boundary_time_shift_allowed(self):
        system = gaussian_gabor(PointSet2D(((3.0, 0.0),)), self.disc)
        assert np.linalg.norm(system.columns[:, 0]) == pytest.approx(GAUSS_NORM, abs=1e-5)

    @pytest.mark.parametrize("build", [gaussian_gabor, generators._gabor_twin], ids=["complex", "twin"])
    def test_rejects_a_modulation_whose_phase_overflows(self, build):
        # |mu| <= max / (4 pi X), 2.38e306 at X = 6, keeps 2 pi mu x finite.
        # A node above it is refused before any table is built, so numpy
        # warns of no overflow (every warning fails the test).
        with pytest.raises(ValueError, match=r"^node \(1\.0, 3e\+306\): \|mu\| above 2\.38e\+306"):
            build(PointSet2D(((0.0, 0.0), (1.0, 3e306), (1.0, -3e306))), self.disc)
        system = build(PointSet2D(((0.0, 2.3e306), (0.0, -2.3e306))), self.disc)
        assert np.isfinite(system.columns).all()

    def test_columns_match_direct_formula(self):
        node = (1.5, -2.0)
        x = self.disc.grid()
        direct = (
            self.disc.normalization
            * np.exp(-np.pi * (x - node[0]) ** 2)
            * np.exp(2j * np.pi * node[1] * x)
        )
        assert_phase_contract(PointSet2D((node,)), self.disc, direct[:, None])

    @pytest.mark.parametrize("disc", [GaborDiscretization(8.0, 16), GaborDiscretization(7.5, 10)])
    @pytest.mark.parametrize(
        "points",
        [
            lattice_points(1.0, 1.0, 3),
            lattice_points(1.25, 0.75, 3),
            lattice_points(0.5, 2.0, 4),
            lattice_points(1.5, 1.5, 3),
            punctured_lattice(4),
            als_point_set(4),
            PointSet2D(tuple(map(tuple, np.array(lattice_points(1.0, 1.0, 3).nodes)
                                 + np.random.default_rng(5).uniform(-0.2, 0.2, (49, 2))))),
            PointSet2D(((0.25, -1.5),)),
            PointSet2D(((0.0, 0.0), (1.0, -0.0), (-0.0, 1.0), (2.0, -0.0), (-0.0, -2.0))),
        ],
        ids=["lattice", "lattice-skew", "lattice-thin", "lattice-sparse", "punctured", "als",
             "jittered", "single", "signed-zeros"],
    )
    def test_phase_accuracy_matches_dense_formula(self, points, disc):
        # Accuracy against the exact phase, no worse than twice the dense formula's.
        assert_phase_contract(points, disc, oracles.dense_gabor_columns(points.nodes, disc))

    def test_jittered_file_set_phase_accuracy_matches_dense_formula(self, tmp_path):
        # The nodes a `gabor --set file` command reads: written at 17 digits, read back.
        jittered = np.array(lattice_points(1.0, 1.0, 3).nodes)
        jittered += np.random.default_rng(11).uniform(-0.2, 0.2, jittered.shape)
        path = str(tmp_path / "nodes.csv")
        matrixio.write_point_set(path, PointSet2D(tuple(map(tuple, jittered))))
        points = matrixio.read_point_set(path)
        disc = GaborDiscretization(8.0, 16)
        assert_phase_contract(points, disc, oracles.dense_gabor_columns(points.nodes, disc))

    @pytest.mark.parametrize(
        "points",
        [lattice_points(1.0, 1.0, 3), punctured_lattice(4), als_point_set(4), SYMMETRIC_JITTERED],
        ids=["lattice", "punctured", "als", "symmetric-jittered"],
    )
    @pytest.mark.parametrize("disc", [GaborDiscretization(8.0, 16), GaborDiscretization(7.5, 10)])
    def test_opposite_modulations_give_conjugate_columns(self, points, disc):
        # Exact as values: where x_l = 0 both columns read 1 + 0i times the envelope.
        columns = gaussian_gabor(points, disc).columns
        index = {node: k for k, node in enumerate(points.nodes)}
        pairs = [(k, index[(t, -m)]) for (t, m), k in index.items() if m > 0.0]
        assert pairs
        for k, j in pairs:
            np.testing.assert_array_equal(columns[:, k], columns[:, j].conj())

    @pytest.mark.parametrize("disc", [GaborDiscretization(8.0, 16), GaborDiscretization(7.5, 10)])
    def test_unmodulated_columns_are_the_dense_formula_bit_for_bit(self, disc):
        points = PointSet2D(((0.0, 0.0), (1.0, -0.0), (-0.5, 0.0), (2.0, 1.5), (0.25, -1.5)))
        unmodulated = [k for k, (_, m) in enumerate(points.nodes) if m == 0.0]
        built = np.ascontiguousarray(gaussian_gabor(points, disc).columns[:, unmodulated])
        dense = np.ascontiguousarray(oracles.dense_gabor_columns(points.nodes, disc)[:, unmodulated])
        assert not built.imag.any()
        np.testing.assert_array_equal(built.view(np.uint64), dense.view(np.uint64))

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 8, 9])
    def test_phase_table_on_short_grids(self, rows):
        # Grids too short for a safe window: the table alone, against the exact phase.
        disc = GaborDiscretization(rows / 16, 8)
        mus = np.array([0.0, -0.0, 0.5, -1.75, 3.0, 1.0 / 3.0])
        table = generators._phase_table(disc.grid(), mus, disc.samples_per_unit)
        exact = oracles.exact_gabor_phases(mus, disc, range(rows))
        assert table.shape == (rows, mus.size)
        scale = EPS * (1.0 + 2.0 * np.pi * np.abs(mus) * disc.half_width)
        assert (np.abs(table - exact) <= PHASE_ERROR_BOUND * scale).all()

    @pytest.mark.parametrize("rows", [64, 100, 144, 256, 89, 97, 101, 103, 107])
    def test_square_and_prime_grid_lengths(self, rows):
        disc = GaborDiscretization(rows / 16, 8)
        points = lattice_points(0.5, 1.25, 2)
        assert gaussian_gabor(points, disc).columns.shape == (rows, len(points))
        assert_phase_contract(points, disc, oracles.dense_gabor_columns(points.nodes, disc))

    @pytest.mark.parametrize(
        "points", [lattice_points(1.0, 1.0, 2), punctured_lattice(2), als_point_set(2)],
        ids=["lattice", "punctured", "als"],
    )
    def test_columns_own_the_product_without_a_copy(self, points, monkeypatch):
        assert_columns_adopted(
            lambda: [gaussian_gabor(points, GaborDiscretization(6.0, 16))], monkeypatch
        )
