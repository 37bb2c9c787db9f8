import json
import re
import threading

import numpy as np
import pytest

import oracles
from rieszlab import (
    CriteriaDisagreementError,
    FamilySpec,
    FitDomainError,
    TrendVerdict,
    VectorSequence,
    PointSet2D,
    als_point_set,
    diagnostics,
    fit_growth,
    lattice_points,
    punctured_lattice,
    run_family,
    scaling,
    span_distance,
)
from rieszlab.cli import main
from rieszlab.matrixio import write_point_set
from rieszlab.scaling import GrowthFit, SizeMetrics, _assemble_report, _evaluate_size, _trend_verdict
from rieszlab.seqcore import _error_bar


def _bar(size, scale):
    """The error model's bar 8 * size * eps * scale, written out here so that a
    change to the package's constant fails the boundary tests."""
    return 8.0 * size * np.finfo(float).eps * scale


def _rows(lowers, uppers, extents=None):
    """Report rows of sizes 10, 20, 40 with the given bounds and no other
    metric, each of the given extent or else its size."""
    sizes = (10, 20, 40)
    return [SizeMetrics(n, a, b, None, None, None, e)
            for n, a, b, e in zip(sizes, lowers, uppers, extents or sizes)]


class TestFitGrowth:
    def test_exact_square_law(self):
        sizes = [4, 8, 16, 32]
        fit = fit_growth(sizes, [s**2 for s in sizes])
        assert fit.exponent == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_values(self):
        fit = fit_growth([3, 9, 27], [5.0, 5.0, 5.0])
        assert fit.exponent == 0.0
        assert fit.r_squared == 1.0

    def test_shifted_linear(self):
        sizes = [8, 16, 32, 64]
        fit = fit_growth(sizes, [s + 1 for s in sizes])
        assert 0.9 < fit.exponent < 1.0
        assert fit.r_squared > 0.999

    def test_rejects_nonpositive(self):
        with pytest.raises(FitDomainError):
            fit_growth([1, 2, 3], [1.0, 0.0, 2.0])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            fit_growth([1, 2], [1.0, 2.0])

    @pytest.mark.parametrize("sizes", [
        [0, 1, 2], [-1, 1, 2], [1, 2, float("inf")], [1, float("nan"), 2], [2, 2, 2],
    ])
    def test_rejects_sizes_it_cannot_fit(self, sizes):
        with pytest.raises(ValueError, match="^sizes must be positive, finite and not all equal$") as info:
            fit_growth(sizes, [1.0, 2.0, 3.0])
        assert not isinstance(info.value, FitDomainError)


class TestTrendVerdict:
    """The verdict's two constants, each on both sides of its boundary."""

    @pytest.mark.parametrize("exponent, verdict", [
        (0.25, TrendVerdict.DIVERGES), (-0.25, TrendVerdict.VANISHES_TO_ZERO),
        (0.15, TrendVerdict.STAYS_BOUNDED_BELOW), (-0.15, TrendVerdict.STAYS_BOUNDED_BELOW),
    ])
    def test_exponent_band(self, exponent, verdict):
        assert _trend_verdict(GrowthFit(exponent, 0.99), floored=False) is verdict

    @pytest.mark.parametrize("r_squared, verdict", [
        (0.95, TrendVerdict.DIVERGES), (0.8, TrendVerdict.STAYS_BOUNDED_BELOW),
    ])
    def test_fit_quality(self, r_squared, verdict):
        assert _trend_verdict(GrowthFit(1.0, r_squared), floored=False) is verdict

    @pytest.mark.parametrize("fit", [None, GrowthFit(0.0, 1.0), GrowthFit(1.0, 0.8)])
    def test_an_untrusted_floored_series_stays_bounded(self, fit):
        assert _trend_verdict(fit, floored=True) is TrendVerdict.STAYS_BOUNDED


class TestErrorBars:
    """Floor and flat series, decided by each cell's error bar."""

    @pytest.mark.parametrize("bars, fitted", [(2.0, True), (0.5, False)], ids=["above", "at"])
    def test_floor(self, bars, fitted):
        # A = bars * 8 n eps B at n = 10, 20, 40: a cell within its bar of 0 is
        # the floor, and its series gets no fit.
        report = _assemble_report(_rows([bars * _bar(n, 1.0) for n in (10, 20, 40)], [1.0] * 3))
        assert ("rieszLowerF" in report.fits) is fitted
        if fitted:
            assert report.fits["rieszLowerF"].exponent == pytest.approx(1.0)
            assert report.verdicts["rieszLowerF"] is TrendVerdict.DIVERGES
        else:
            assert report.verdicts["rieszLowerF"] is TrendVerdict.STAYS_BOUNDED

    @pytest.mark.parametrize("bars, flat", [(1.5, True), (3.0, False)], ids=["within", "beyond"])
    def test_flat(self, bars, flat):
        # B = (1, 1 + d, 1) with d = bars * 8 * 10 * eps, each cell of extent 10:
        # cells of that bar share a value when d is at most two bars.
        d = bars * _bar(10, 1.0)
        report = _assemble_report(_rows([0.5] * 3, [1.0, 1.0 + d, 1.0], (10, 10, 10)))
        fit = report.fits["besselUpperF"]
        assert (fit == GrowthFit(0.0, 1.0)) is flat
        assert report.verdicts["besselUpperF"] is TrendVerdict.STAYS_BOUNDED_BELOW

    def test_rounding_flat_series_read_as_constant(self):
        # Each series agrees to a few ulps, whose power-law fit was noise.
        young = run_family(FamilySpec("youngGeneral", (9, 18, 36, 72), {"complementDim": 3}))
        gabor = run_family(FamilySpec("gaborPunctured", (1, 2, 3),
                                      {"halfWidth": 7.0, "samplesPerUnit": 24}))
        assert young.fits["rieszLowerF"] == GrowthFit(0.0, 1.0)
        assert gabor.fits["defectDistanceF"] == GrowthFit(0.0, 1.0)
        assert [row.defect_distance for row in gabor.per_size] != [1.0] * 3

    def test_a_vanishing_lower_bound_keeps_its_fit_below_1e_6(self):
        report = run_family(FamilySpec("weightedPair", (256, 512, 1024, 2048)))
        assert report.per_size[-1].riesz_lower == 2048.0**-2 < 1e-6
        assert report.fits["rieszLowerF"] == GrowthFit(-2.0, 1.0)
        assert report.verdicts["rieszLowerF"] is TrendVerdict.VANISHES_TO_ZERO

    def test_extent_is_in_no_output(self):
        report = run_family(FamilySpec("youngExample", (8, 16, 32)))
        assert [row._extent for row in report.per_size] == [8, 16, 32]
        assert "xtent" not in json.dumps(report.to_dict()) + report.csv_text()


class TestFamilySpec:
    def test_rejects_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator"):
            FamilySpec("mystery", (8, 16, 32))

    def test_rejects_two_sizes(self):
        with pytest.raises(ValueError):
            FamilySpec("orthonormal", (8, 16))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            FamilySpec("orthonormal", (8, 8, 16))

    def test_rejects_unknown_parameters_by_name(self):
        with pytest.raises(ValueError, match=r"^youngGeneral does not read \['complement_dim'\]$"):
            FamilySpec("youngGeneral", (8, 16, 32), {"complement_dim": 3})

    @pytest.mark.parametrize(
        "generator, parameters",
        [("weightedPair", {"seed": 3}), ("rieszSeeded", {"complementDim": 2}),
         ("youngGeneral", {"halfWidth": 7.0}), ("gaborALS", {"seed": 4, "complementDim": 2})],
        ids=["weightedPair", "rieszSeeded", "youngGeneral", "gaborALS"],
    )
    def test_refuses_a_parameter_the_family_does_not_read(self, generator, parameters):
        unread = sorted(parameters)
        with pytest.raises(ValueError, match=rf"^{generator} does not read {re.escape(str(unread))}$"):
            FamilySpec(generator, (2, 3, 4), parameters)

    def test_types_every_given_parameter_before_refusing_an_unread_one(self):
        with pytest.raises(ValueError, match="^seed must be an integer, got 2.5$"):
            FamilySpec("weightedPair", (2, 3, 4), {"seed": 2.5})

    @pytest.mark.parametrize(
        "generator, given, parameters",
        [
            ("gaborPunctured", {"halfWidth": 7, "probeIndex": 2.0},
             {"probeIndex": 2, "halfWidth": 7.0, "samplesPerUnit": 16}),
            ("rieszSeeded", {"seed": 4.0}, {"seed": 4, "probeIndex": 0}),
            ("youngGeneral", {"complementDim": 3.0}, {"probeIndex": 0, "complementDim": 3}),
            ("weightedPair", {}, {"probeIndex": 0}),
        ],
        ids=["gaborPunctured", "rieszSeeded", "youngGeneral", "weightedPair"],
    )
    def test_fills_and_types_the_parameters(self, generator, given, parameters):
        spec = FamilySpec(generator, (1, 2, 3) if generator == "gaborPunctured" else (8, 16, 32),
                          given)
        assert spec.parameters == parameters
        assert [type(v) for v in spec.parameters.values()] == [
            type(scaling._PARAMETER_DEFAULTS[name]) for name in parameters]
        assert list(spec.parameters) == list(parameters)

    @pytest.mark.parametrize(
        "sizes, parameters, name",
        [
            ((2.5, 4, 8), {}, "size"),
            ((2, 4, 8), {"probeIndex": 1.9}, "probeIndex"),
            ((2, 4, 8), {"samplesPerUnit": 16.5}, "samplesPerUnit"),
            ((2, 4, 8), {"seed": "3"}, "seed"),
            ((2, 4, float("inf")), {}, "size"),
            ((2, 4, 8), {"seed": float("inf")}, "seed"),
            ((2, 4, 8), {"complementDim": -float("inf")}, "complementDim"),
            ((2, 4, 8), {"seed": float("nan")}, "seed"),
            ((2, 4, 8), {"seed": "three"}, "seed"),
            ((2, 4, None), {}, "size"),
            ((2, 4, 8), {"seed": None}, "seed"),
        ],
        ids=["size", "probeIndex", "samplesPerUnit", "seedText", "sizeInf", "seedInf",
             "complementDimMinusInf", "seedNaN", "seedWord", "sizeNone", "seedNone"],
    )
    def test_refuses_an_integer_it_would_truncate(self, sizes, parameters, name):
        value = parameters[name] if parameters else next(s for s in sizes if type(s) is not int)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            FamilySpec("orthonormal", sizes, parameters)

    @pytest.mark.parametrize("value", [None, "wide", 1j], ids=["none", "word", "complex"])
    def test_refuses_a_float_parameter_that_is_no_number(self, value):
        with pytest.raises(ValueError, match=f"^halfWidth must be a number, got {value!r}$"):
            FamilySpec("gaborPunctured", (1, 2, 3), {"halfWidth": value})

    def test_parameters_are_read_only(self):
        spec = FamilySpec("youngGeneral", (8, 16, 32))
        with pytest.raises(TypeError):
            spec.parameters["complement_dim"] = 3
        assert "complement_dim" not in spec.parameters


#: Each family at three sizes, every parameter it reads away from its default.
SHAPE_CASES = [
    ("orthonormal", (1, 5, 9), {"probeIndex": 1}),
    ("weightedPair", (1, 5, 9), {"probeIndex": 1}),
    ("alternatingWeightedPair", (1, 5, 9), {"probeIndex": 1}),
    ("youngExample", (2, 5, 9), {"probeIndex": 1}),
    ("youngGeneral", (4, 5, 9), {"probeIndex": 1, "complementDim": 3}),
    ("rieszSeeded", (1, 5, 9), {"probeIndex": 1, "seed": 4}),
    ("gaborPunctured", (1, 2, 3), {"probeIndex": 1, "halfWidth": 7.0, "samplesPerUnit": 24}),
    ("gaborALS", (1, 2, 3), {"probeIndex": 1, "halfWidth": 7.0, "samplesPerUnit": 24}),
    ("gaborFullLattice", (1, 2, 3), {"probeIndex": 1, "halfWidth": 7.0, "samplesPerUnit": 24}),
]


class TestRunFamily:
    def test_weighted_dual_bound_diverges_quadratically(self):
        report = run_family(FamilySpec("weightedPair", (8, 16, 32, 64)))
        fit = report.fits["besselUpperDual"]
        assert fit.exponent == pytest.approx(2.0, abs=0.01)
        assert report.verdicts["besselUpperDual"] is TrendVerdict.DIVERGES
        # values are exactly n^2
        assert [row.bessel_upper_dual for row in report.per_size] == [64, 256, 1024, 4096]

    def test_weighted_lower_bound_vanishes(self):
        report = run_family(FamilySpec("weightedPair", (8, 16, 32, 64)))
        assert report.fits["rieszLowerF"].exponent == pytest.approx(-2.0, abs=0.01)
        assert report.verdicts["rieszLowerF"] is TrendVerdict.VANISHES_TO_ZERO

    def test_young_exponents(self):
        report = run_family(FamilySpec("youngExample", (8, 16, 32, 64)))
        assert report.fits["besselUpperF"].exponent == pytest.approx(1.0, abs=0.02)
        assert report.fits["defectDistanceF"].exponent == pytest.approx(-0.5, abs=0.01)
        assert report.verdicts["besselUpperF"] is TrendVerdict.DIVERGES
        assert report.verdicts["defectDistanceF"] is TrendVerdict.VANISHES_TO_ZERO
        # the designated partner stays orthonormal at every size
        assert report.verdicts["besselUpperDual"] is TrendVerdict.STAYS_BOUNDED_BELOW

    def test_orthonormal_everything_flat(self):
        report = run_family(FamilySpec("orthonormal", (8, 16, 32)))
        for name in ("rieszLowerF", "besselUpperF", "besselUpperDual"):
            assert report.fits[name].exponent == pytest.approx(0.0, abs=1e-12)
            assert report.fits[name].r_squared == 1.0
        for verdict in report.verdicts.values():
            assert verdict in (TrendVerdict.STAYS_BOUNDED, TrendVerdict.STAYS_BOUNDED_BELOW)

    def test_rows_ordered_by_size(self):
        report = run_family(FamilySpec("rieszSeeded", (4, 6, 8), {"seed": 1}))
        assert [row.size for row in report.per_size] == [4, 6, 8]

    def test_seeded_family_deterministic(self):
        spec = FamilySpec("rieszSeeded", (4, 6, 8), {"seed": 5})
        a = run_family(spec).to_dict()
        b = run_family(spec).to_dict()
        assert a == b

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("rieszSeeded", (4, 6, 8, 12), {"seed": 3}),
            FamilySpec("youngExample", (8, 16, 32)),
            FamilySpec("gaborPunctured", (1, 2, 3), {"halfWidth": 6.0, "samplesPerUnit": 12}),
            FamilySpec("weightedPair", (8, 16, 32, 64)),
            FamilySpec("youngGeneral", (8, 16, 32), {"complementDim": 2}),
        ],
        ids=lambda spec: spec.generator_id,
    )
    def test_rows_are_the_per_size_evaluations(self, spec):
        inline = [_evaluate_size(spec.generator_id, s, spec.parameters) for s in spec.sizes]
        assert list(run_family(spec).per_size) == inline

    @pytest.mark.parametrize("generator, sizes, given", SHAPE_CASES, ids=[c[0] for c in SHAPE_CASES])
    def test_shape_is_the_built_members_shape(self, generator, sizes, given):
        # The shape that the size rules and the size guard read, known before
        # the member is built, is the member's own (dim, count).
        params = FamilySpec(generator, sizes, given).parameters
        family = scaling._FAMILIES[generator]
        for size in sizes:
            system, partner = scaling._build_member(generator, size, params)
            assert family.shape(size, params) == (system.dim, system.count)
            assert partner is None or (partner.dim, partner.count) == (system.dim, system.count)

    def test_shape_cases_cover_every_family_and_parameter(self):
        assert [generator for generator, _, _ in SHAPE_CASES] == list(scaling._FAMILIES)
        for generator, _, given in SHAPE_CASES:
            assert set(given) == {"probeIndex", *scaling._FAMILIES[generator].reads}
            assert all(value != scaling._PARAMETER_DEFAULTS[name] for name, value in given.items())

    @pytest.mark.parametrize("generator", list(scaling._FAMILIES))
    def test_reads_lists_the_parameters_the_build_reads(self, generator):
        # Every key the member's build and its shape read, and no other, is in
        # the record's `reads`; probeIndex is read by the study itself.
        read = set()

        class Recording(dict):
            def __getitem__(self, name):
                read.add(name)
                return super().__getitem__(name)

        params = Recording(scaling._PARAMETER_DEFAULTS)
        family = scaling._FAMILIES[generator]
        scaling._build_member(generator, 3, params)
        family.shape(3, params)
        assert read == set(family.reads)

    @pytest.mark.parametrize("generator, given, smallest", [
        ("youngExample", {}, 2), ("youngGeneral", {"complementDim": 3}, 4)])
    def test_size_rule_refuses_a_member_without_a_vector(self, generator, given, smallest):
        # The smallest size has a member of one vector; one below it has none.
        run_family(FamilySpec(generator, (smallest, smallest + 1, smallest + 2), given))
        message = re.escape(f"size {smallest - 1}: {scaling._FAMILIES[generator].too_small}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_family(FamilySpec(generator, (smallest - 1, smallest, smallest + 1), given))

    def test_every_size_failing_reports_the_smallest(self):
        # Sizes are evaluated smallest first, so the smallest failure is the first.
        with pytest.raises(ValueError, match="^size 1: "):
            run_family(FamilySpec("youngGeneral", (1, 2, 3), {"complementDim": 3}))

    def test_members_and_distances_run_on_the_calling_thread(self, monkeypatch):
        threads = []
        build, distance = scaling._build_member, diagnostics.span_distance

        def record_build(*args):
            threads.append(("build", threading.get_ident()))
            return build(*args)

        def record_distance(*args):
            threads.append(("distance", threading.get_ident()))
            return distance(*args)

        monkeypatch.setattr(scaling, "_build_member", record_build)
        monkeypatch.setattr(diagnostics, "span_distance", record_distance)
        spec = FamilySpec("rieszSeeded", (4, 6, 8, 12), {"seed": 3})
        run_family(spec)
        caller = threading.get_ident()
        assert threads == [(kind, caller) for _ in spec.sizes for kind in ("build", "distance")]

    def test_smallest_failure_stops_before_a_larger_size_is_built(self, monkeypatch):
        built = []
        build = scaling._build_member

        def refuse_the_smallest(generator_id, size, params):
            built.append(size)
            if size == 4:
                raise ValueError("draw refused")
            return build(generator_id, size, params)

        monkeypatch.setattr(scaling, "_build_member", refuse_the_smallest)
        with pytest.raises(ValueError, match="^size 4: draw refused$"):
            run_family(FamilySpec("rieszSeeded", (4, 6, 8, 12)))
        assert built == [4]

    def test_distance_failure_is_annotated(self, monkeypatch):
        class DistanceError(Exception):
            pass

        original = span_distance

        def refuse_at_six(system, vector):
            if system.dim == 6:
                raise DistanceError("lstsq did not converge")
            return original(system, vector)

        monkeypatch.setattr("rieszlab.diagnostics.span_distance", refuse_at_six)
        with pytest.raises(DistanceError, match="^size 6: lstsq did not converge$"):
            run_family(FamilySpec("rieszSeeded", (4, 6, 8)))

    @pytest.mark.parametrize("generator", ["youngExample", "weightedPair"])
    def test_nested_truncations_interlace(self, generator):
        report = run_family(FamilySpec(generator, (8, 16, 32, 64)))
        lowers = [row.riesz_lower for row in report.per_size]
        uppers = [row.bessel_upper for row in report.per_size]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(lowers, lowers[1:]))
        assert all(b >= a * (1 - 1e-12) for a, b in zip(uppers, uppers[1:]))

    def test_gabor_family_interlaces(self):
        report = run_family(
            FamilySpec("gaborPunctured", (1, 2, 3), {"halfWidth": 6.0, "samplesPerUnit": 16})
        )
        lowers = [row.riesz_lower for row in report.per_size]
        uppers = [row.bessel_upper for row in report.per_size]
        assert lowers[0] > lowers[1] > lowers[2]
        assert uppers[0] < uppers[1] < uppers[2]

    @pytest.mark.parametrize("generator", ["youngExample", "weightedPair", "orthonormal"])
    def test_verdicts_stable_without_smallest_size(self, generator):
        full = run_family(FamilySpec(generator, (8, 16, 32, 64)))
        trimmed = run_family(FamilySpec(generator, (16, 32, 64)))
        assert trimmed.verdicts == full.verdicts

    def test_size_failure_is_annotated(self):
        with pytest.raises(ValueError, match="size 1"):
            run_family(FamilySpec("youngExample", (1, 2, 3)))

    def test_size_failure_keeps_a_type_not_rebuilt_from_a_message(self, monkeypatch):
        class TwoArgumentError(Exception):
            def __init__(self, shape, dtype):
                super().__init__(f"cannot allocate {shape} of {dtype}")

        def refuse(n, seed):
            raise TwoArgumentError((n, n), "complex128")

        monkeypatch.setattr("rieszlab.generators.random_riesz", refuse)
        with pytest.raises(TwoArgumentError, match="cannot allocate"):
            run_family(FamilySpec("rieszSeeded", (4, 6, 8)))

    def test_young_general_family(self):
        report = run_family(
            FamilySpec("youngGeneral", (8, 16, 32), {"complementDim": 2})
        )
        # span misses the whole 2-dimensional complement at every size
        assert all(row.bessel_upper_dual == pytest.approx(1.0) for row in report.per_size)
        assert report.verdicts["besselUpperF"] is TrendVerdict.DIVERGES

    def test_alternating_family_runs(self):
        report = run_family(FamilySpec("alternatingWeightedPair", (8, 16, 32)))
        assert report.verdicts["besselUpperF"] is TrendVerdict.DIVERGES
        assert report.verdicts["besselUpperDual"] is TrendVerdict.DIVERGES

    def test_probe_index_override(self):
        import numpy as np

        from rieszlab import span_distance, young_general

        system = young_general(6, 6, complement_dim=2).primal
        for index in (0, 2):
            report = run_family(
                FamilySpec(
                    "youngGeneral", (8, 16, 32), {"complementDim": 2, "probeIndex": index}
                )
            )
            probe = np.zeros(8, dtype=complex)
            probe[index] = 1.0
            assert report.per_size[0].defect_distance == pytest.approx(
                span_distance(system, probe), rel=1e-12
            )

    def test_probe_index_out_of_range(self):
        with pytest.raises(ValueError, match="probe index"):
            run_family(FamilySpec("orthonormal", (4, 8, 16), {"probeIndex": 99}))

    def test_complete_families_residual_is_exactly_zero(self):
        # The minimal dual of a complete independent system reconstructs
        # exactly; the residual is the rank decision, not rounding noise.
        residuals = [
            row.duality_residual
            for generator in ("rieszSeeded", "orthonormal")
            for row in run_family(FamilySpec(generator, (8, 16, 32))).per_size
        ]
        assert residuals == [0.0] * 6

    def test_incomplete_gabor_residual_is_exactly_one(self):
        # The minimal dual of an independent incomplete system reconstructs
        # the orthogonal projector onto its span, a distance of exactly 1.
        report = run_family(FamilySpec("gaborPunctured", (1, 2, 3)))
        assert [row.duality_residual for row in report.per_size] == [1.0, 1.0, 1.0]

    def test_full_rank_size_with_refused_dual_reads_the_rank_decision(self, monkeypatch):
        import numpy as np

        from rieszlab import IllConditionedError, VectorSequence, minimal_dual

        # Singular values 1, ..., 1, 1e-9: independent by rank, but the dual's
        # biorthogonality residual (about 1.7) is far above its 1e-8 contract.
        rng = np.random.default_rng(0)
        q1, q2 = (np.linalg.qr(rng.standard_normal((10, 10)))[0] for _ in range(2))
        system = VectorSequence.from_columns(q1 @ np.diag([1.0] * 9 + [1e-9]) @ q2)
        with pytest.raises(IllConditionedError):
            minimal_dual(system)
        monkeypatch.setattr(
            "rieszlab.scaling._build_member", lambda generator_id, size, params: (system, None)
        )
        row = _evaluate_size("rieszSeeded", 10, FamilySpec("rieszSeeded", (10, 11, 12)).parameters)
        assert row.duality_residual == 0.0
        assert row.bessel_upper_dual == 1.0 / row.riesz_lower

    @pytest.mark.parametrize(
        "generator", ["weightedPair", "alternatingWeightedPair", "youngExample", "youngGeneral"]
    )
    def test_non_biorthogonal_partner_is_caught(self, generator, monkeypatch):
        # Halving the partner quarters B_G, so A_F B_G falls from 1 to 1/4.
        build = scaling._build_member

        def halve_partner(generator_id, size, params):
            system, partner = build(generator_id, size, params)
            return system, VectorSequence.from_columns(0.5 * partner.columns)

        monkeypatch.setattr(scaling, "_build_member", halve_partner)
        with pytest.raises(CriteriaDisagreementError, match="^size 8: A_F B_G = "):
            run_family(FamilySpec(generator, (8, 16, 32)))

    def test_partner_below_the_other_bound_is_caught(self, monkeypatch):
        # Halving g_1 of the weighted pair leaves A_F B_G at 1 but takes
        # B_F A_G from 1 to 1/4.
        build = scaling._build_member

        def halve_first_partner_column(generator_id, size, params):
            system, partner = build(generator_id, size, params)
            columns = partner.columns.copy()
            columns[:, 0] *= 0.5
            return system, VectorSequence.from_columns(columns)

        monkeypatch.setattr(scaling, "_build_member", halve_first_partner_column)
        message = "^size 8: A_F B_G = 1.0 and B_F A_G = 0.25 miss 1 by 0.75,"
        with pytest.raises(CriteriaDisagreementError, match=message):
            run_family(FamilySpec("weightedPair", (8, 16, 32)))

    def test_gabor_dual_bound_is_inverse_lower(self):
        report = run_family(
            FamilySpec("gaborFullLattice", (1, 2, 3), {"halfWidth": 6.0, "samplesPerUnit": 16})
        )
        for row in report.per_size:
            assert row.bessel_upper_dual == pytest.approx(1.0 / row.riesz_lower, rel=1e-12)


class TestGaborRefinement:
    """The `refinement` block of `gabor --refine`: the bounds at every rate."""

    @staticmethod
    def refinement(tmp_path, *flags):
        out = tmp_path / "g.json"
        assert main(["gabor", *flags, "--json", str(out)]) == 0
        return json.loads(out.read_text())["refinement"]

    def test_single_node_bounds_coincide(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("0,0\n")
        block = self.refinement(tmp_path, "--set", "file", "--nodes", str(nodes), "--refine", "8,32")
        assert [row["size"] for row in block["perSize"]] == [8, 16, 32]
        for row in block["perSize"]:
            assert row["rieszLowerF"] == pytest.approx(row["besselUpperF"], rel=1e-12)
            assert row["besselUpperF"] == pytest.approx(2.0**-0.5, abs=1e-5)

    def test_punctured_upper_bound_stable(self, tmp_path):
        block = self.refinement(tmp_path, "--set", "punctured", "--max-index", "3", "--refine", "12,32")
        uppers = [row["besselUpperF"] for row in block["perSize"]]
        assert len(uppers) == 3 and max(uppers) / min(uppers) - 1 < 0.05
        assert block["verdicts"]["besselUpperF"] in (
            TrendVerdict.STAYS_BOUNDED.value,
            TrendVerdict.STAYS_BOUNDED_BELOW.value,
        )


#: The jittered window of `lattice_points(1.0, 0.5, 2)`: every node moved by up
#: to 0.2 in each coordinate, so no node has a partner (tau, -mu) and `gabor`
#: factors the complex system.
_UNPAIRED = PointSet2D(tuple(map(tuple, np.array(lattice_points(1.0, 0.5, 2).nodes)
                                 + np.random.default_rng(4).uniform(-0.2, 0.2, (25, 2)))))


class TestClosedFormGram:
    """Sampled bounds against the extreme eigenvalues of `oracles.gabor_gram`,
    the continuous system's Gram matrix, within the rounding bar of a Gram of
    that many nodes and that upper bound: at a rate well above the aliasing
    bound and nodes three widths inside the window, sampling and truncation
    move the bounds by far less than rounding does."""

    @staticmethod
    def assert_matches_the_gram(points, lower, upper):
        exact = np.linalg.eigvalsh(oracles.gabor_gram(points.nodes))
        bar = _error_bar(len(points), exact[-1])
        assert abs(lower - exact[0]) <= bar and abs(upper - exact[-1]) <= bar, (
            lower - exact[0], upper - exact[-1], bar)

    @pytest.mark.parametrize("flags, points", [
        (["--set", "lattice"], lattice_points(1.0, 1.0, 2)),
        (["--set", "lattice", "--a", "1.5", "--b", "2"], lattice_points(1.5, 2.0, 2)),
        (["--set", "punctured", "--max-index", "3"], punctured_lattice(3)),
        (["--set", "als", "--nmax", "2"], als_point_set(2)),
        (["--set", "file"], _UNPAIRED),
    ], ids=["lattice", "lattice-a1.5-b2", "punctured", "als", "file-unpaired"])
    def test_gabor_bounds_and_every_refinement_row(self, flags, points, tmp_path, capsys):
        # The base rate lies between the --refine rates, which come unsorted.
        if flags[-1] == "file":
            write_point_set(str(tmp_path / "nodes.csv"), points)
            flags = [*flags, "--nodes", str(tmp_path / "nodes.csv")]
        assert main(["gabor", *flags, "--samples", "24", "--refine", "32,16"]) == 0
        report = json.loads(capsys.readouterr().out)
        bounds = report["bounds"]
        self.assert_matches_the_gram(points, bounds["rieszLower"], bounds["besselUpper"])
        rows = report["refinement"]["perSize"]
        assert [row["size"] for row in rows] == [16, 24, 32]
        for row in rows:
            self.assert_matches_the_gram(points, row["rieszLowerF"], row["besselUpperF"])

    @pytest.mark.parametrize("generator, points", [
        ("gaborPunctured", punctured_lattice),
        ("gaborALS", als_point_set),
        ("gaborFullLattice", lambda n: lattice_points(1.0, 1.0, n)),
    ])
    def test_gabor_family_sizes(self, generator, points):
        report = run_family(FamilySpec(generator, (1, 2, 3)))
        for row in report.per_size:
            self.assert_matches_the_gram(points(row.size), row.riesz_lower, row.bessel_upper)


class TestReportSerialization:
    def test_dict_shape(self):
        report = run_family(FamilySpec("youngExample", (8, 16, 32)))
        payload = report.to_dict()
        assert {"perSize", "fits", "verdicts"} <= payload.keys()
        assert payload["perSize"][0]["size"] == 8
        assert set(payload["fits"]["besselUpperF"]) == {"exponent", "r2"}
        assert payload["verdicts"]["besselUpperF"] == "Diverges"

    def test_csv_round_trip(self):
        report = run_family(FamilySpec("weightedPair", (8, 16, 32)))
        lines = report.csv_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "size"
        first = dict(zip(header, lines[1].split(",")))
        assert int(first["size"]) == 8
        assert float(first["besselUpperDual"]) == 64.0
