"""Acceptance suite: one test per shipped guarantee, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import json
import time

import numpy as np
import pytest

import oracles
from rieszlab import (
    FamilySpec,
    GaborDiscretization,
    PointSet2D,
    TrendVerdict,
    VectorSequence,
    VerdictKind,
    alternating_weighted_pair,
    als_point_set,
    bessel_bound,
    biorthogonality_residual,
    classify,
    completeness_defect,
    duality_identity_residual,
    gaussian_gabor,
    lattice_points,
    minimal_dual,
    orthonormal,
    punctured_lattice,
    random_riesz,
    riesz_bounds,
    run_family,
    span_distance,
    weighted_pair,
    young_example,
    young_general,
)
from rieszlab.cli import main as cli_main
from rieszlab.matrixio import read_matrix, write_matrix


def _pass(number, detail):
    print(f"PASS criterion {number}: {detail}")


def test_criterion_1_cross_route_agreement():
    started = time.perf_counter()
    counts = {kind: 0 for kind in VerdictKind}
    for i in range(1000):
        rng = np.random.default_rng(i)
        n = int(rng.integers(2, 65))
        kind = i % 4
        if kind == 0:
            seq = random_riesz(n, seed=i)
            expected = VerdictKind.RIESZ_BASIS
        elif kind == 1:
            r = int(rng.integers(1, n))
            extra = int(rng.integers(1, 5))
            base = oracles.random_columns(i, n, r)
            mix = rng.standard_normal((r, extra))
            seq = VectorSequence.from_columns(np.concatenate([base, base @ mix], axis=1))
            expected = VerdictKind.LINEARLY_DEPENDENT
        elif kind == 2:
            m = int(rng.integers(1, n))
            seq = VectorSequence.from_columns(oracles.random_columns(i, n, m))
            expected = VerdictKind.RIESZ_SEQUENCE_INCOMPLETE
        else:
            m = n + int(rng.integers(1, 6))
            seq = VectorSequence.from_columns(oracles.random_columns(i, n, m))
            expected = VerdictKind.LINEARLY_DEPENDENT
        verdict = classify(seq)  # raises CriteriaDisagreementError on any route mismatch
        assert verdict.kind is expected
        if verdict.kind is VerdictKind.RIESZ_BASIS:
            assert verdict.bounds.completeness_defect == 0
            assert verdict.bounds.riesz_lower > 0
        elif verdict.kind is VerdictKind.RIESZ_SEQUENCE_INCOMPLETE:
            assert verdict.bounds.completeness_defect > 0
            assert verdict.bounds.riesz_lower > 0
        counts[verdict.kind] += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _pass(1, f"1000 instances, 0 route disagreements, verdict mix {dict((k.value, v) for k, v in counts.items())}, {elapsed:.1f}s")


def test_criterion_2_dual_route_certifies_bases():
    worst_biorth = worst_identity = worst_recovery = 0.0
    for i in range(200):
        n = 2 + (7 * i) % 63
        seq = random_riesz(n, seed=1000 + i)
        dual = minimal_dual(seq)
        biorth = biorthogonality_residual(seq, dual)
        identity = duality_identity_residual(seq, dual)
        assert biorth <= 1e-8
        assert identity <= 1e-8
        assert classify(seq).kind is VerdictKind.RIESZ_BASIS
        rng = np.random.default_rng(5000 + i)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        recovered = dual.columns.conj().T @ (seq.columns @ c)
        deviation = np.linalg.norm(recovered - c) / max(1.0, np.linalg.norm(c))
        assert deviation <= 1e-8
        worst_biorth = max(worst_biorth, biorth)
        worst_identity = max(worst_identity, identity)
        worst_recovery = max(worst_recovery, deviation)
    _pass(2, f"200 bases: residuals <= {worst_biorth:.1e} / {worst_identity:.1e}, recovery error <= {worst_recovery:.1e}")


def test_criterion_3_dual_defects_match():
    disc = GaborDiscretization(6.0, 16)
    generator_instances = [
        orthonormal(6),
        weighted_pair(5).primal,
        alternating_weighted_pair(7).primal,
        young_example(4).primal,
        young_example(9).primal,
        young_general(5, 4, complement_dim=2).primal,
        random_riesz(8, seed=1),
        gaussian_gabor(punctured_lattice(2), disc),
        gaussian_gabor(als_point_set(1), disc),
        gaussian_gabor(lattice_points(1.0, 1.0, 1), disc),
    ]
    for seq in generator_instances:
        defects = completeness_defect(seq), completeness_defect(minimal_dual(seq))
        assert defects[0] == defects[1], f"defect mismatch on generator instance: {defects}"
    violations = 0
    for i in range(500):
        n = 4 + (i % 30)
        defect = i % 4
        seq = VectorSequence.from_columns(oracles.random_columns(2000 + i, n, n - defect))
        assert completeness_defect(seq) == defect
        if completeness_defect(minimal_dual(seq)) != defect:
            violations += 1
    assert violations == 0
    _pass(3, f"{len(generator_instances)} generator instances + 500 seeded systems, 0 defect mismatches")


@pytest.mark.parametrize("n", [4, 9, 16, 64])
def test_criterion_4_young_closed_forms(n):
    pair = young_example(n)
    probe = np.zeros(n + 1, dtype=complex)
    probe[0] = 1.0

    # independent oracles: dense eigensolve of the assembled Gram, explicit
    # least-squares projector, eigensolve-based spectral norm
    oracle_upper = float(np.linalg.eigvalsh(np.eye(n) + np.ones((n, n)))[-1])
    oracle_distance = oracles.projector_distance(pair.primal.columns, probe)
    assembled = pair.primal.columns @ pair.partner.columns.conj().T - np.eye(n + 1)
    oracle_residual = oracles.spectral_norm(assembled)

    upper = bessel_bound(pair.primal)
    assert upper == pytest.approx(n + 1, rel=1e-8)
    assert upper == pytest.approx(oracle_upper, rel=1e-10)

    distance = span_distance(pair.primal, probe)
    assert distance == pytest.approx(1 / np.sqrt(n + 1), rel=1e-8)
    assert distance == pytest.approx(oracle_distance, rel=1e-8)

    assert abs(bessel_bound(pair.partner) - 1.0) <= 1e-10

    residual = duality_identity_residual(pair.primal, pair.partner)
    assert residual == pytest.approx(np.sqrt(n + 1), rel=1e-8)
    assert residual == pytest.approx(oracle_residual, rel=1e-8)
    _pass(4, f"N={n}: B_F={upper:.6f}, dist={distance:.6f}, B_G=1, identity residual={residual:.6f}")


@pytest.mark.parametrize("n", [5, 50])
def test_criterion_5_weighted_pairs(n):
    pair = weighted_pair(n)
    assert bessel_bound(pair.primal) == pytest.approx(1.0, rel=1e-12)
    assert bessel_bound(pair.partner) == pytest.approx(float(n) ** 2, rel=1e-12)
    dual = minimal_dual(pair.primal)
    assert np.abs(dual.columns - pair.partner.columns).max() <= 1e-12

    alternating = alternating_weighted_pair(n)
    k = np.arange(1, n + 1, dtype=float)
    weights = np.where(k == 1, 1.0, np.where(k % 2 == 0, k, 1.0 / k))
    assert bessel_bound(alternating.primal) == pytest.approx((weights**2).max(), rel=1e-12)
    assert bessel_bound(alternating.partner) == pytest.approx((weights**-2).max(), rel=1e-12)
    _pass(5, f"n={n}: B_F=1, B_G={n * n}, dual map exact to 1e-12, alternating bounds match diagonals")


def test_criterion_6_scaling_exponents():
    started = time.perf_counter()
    sizes = (8, 16, 32, 64)

    young = run_family(FamilySpec("youngExample", sizes))
    fit = young.fits["besselUpperF"]
    assert fit.exponent == pytest.approx(1.0, abs=0.02)
    assert fit.r_squared > 0.999
    assert young.verdicts["besselUpperF"] is TrendVerdict.DIVERGES
    fit = young.fits["defectDistanceF"]
    assert fit.exponent == pytest.approx(-0.5, abs=0.02)
    assert fit.r_squared > 0.999
    assert young.verdicts["defectDistanceF"] is TrendVerdict.VANISHES_TO_ZERO

    weighted = run_family(FamilySpec("weightedPair", sizes))
    fit = weighted.fits["besselUpperDual"]
    assert fit.exponent == pytest.approx(2.0, abs=0.02)
    assert fit.r_squared > 0.999
    assert weighted.verdicts["besselUpperDual"] is TrendVerdict.DIVERGES

    flat = run_family(FamilySpec("orthonormal", sizes))
    for name in ("rieszLowerF", "besselUpperF", "besselUpperDual"):
        fit = flat.fits[name]
        assert fit.exponent == pytest.approx(0.0, abs=0.02)
        assert fit.r_squared > 0.999
    assert set(flat.verdicts.values()) <= {
        TrendVerdict.STAYS_BOUNDED,
        TrendVerdict.STAYS_BOUNDED_BELOW,
    }

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _pass(6, f"exponents 1.0 / -0.5 / 2.0 / 0.0 recovered, r^2 > 0.999, {elapsed:.1f}s")


def test_criterion_7_gabor_numerics():
    started = time.perf_counter()
    disc16 = GaborDiscretization(6.0, 16)

    single = gaussian_gabor(PointSet2D(((0.0, 0.0),)), disc16)
    norm = float(np.linalg.norm(single.columns[:, 0]))
    assert norm == pytest.approx(2.0**-0.25, abs=1e-5)

    expected_overlap = 2.0**-0.5 * np.exp(-np.pi / 2)
    time_pair = gaussian_gabor(PointSet2D(((0.0, 0.0), (1.0, 0.0))), disc16)
    time_overlap = abs(np.vdot(time_pair.columns[:, 1], time_pair.columns[:, 0]))
    assert time_overlap == pytest.approx(expected_overlap, abs=1e-5)
    freq_pair = gaussian_gabor(PointSet2D(((0.0, 0.0), (0.0, 1.0))), disc16)
    freq_overlap = abs(np.vdot(freq_pair.columns[:, 1], freq_pair.columns[:, 0]))
    assert freq_overlap == pytest.approx(expected_overlap, abs=1e-5)

    punctured = punctured_lattice(3)
    coarse = riesz_bounds(gaussian_gabor(punctured, disc16)).upper
    fine = riesz_bounds(gaussian_gabor(punctured, GaborDiscretization(6.0, 32))).upper
    variation = abs(fine - coarse) / coarse
    assert variation < 0.05

    # Half-width 7 keeps the largest time shift (|tau| = 4) inside the safe
    # window |tau| <= X - 3, which half-width 6 cannot do.
    disc7 = GaborDiscretization(7.0, 16)
    lowers = [
        riesz_bounds(gaussian_gabor(punctured_lattice(m), disc7)).lower for m in (2, 3, 4)
    ]
    assert lowers[0] > lowers[1] > lowers[2] > 0

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _pass(
        7,
        f"norm={norm:.6f}, overlaps={time_overlap:.6f}/{freq_overlap:.6f}, "
        f"upper-bound drift {variation:.2e}, lower bounds {lowers[0]:.4f} > {lowers[1]:.4f} > {lowers[2]:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_equivalent_inner_product():
    # For a Riesz basis F with minimal dual G, W = (F F^H)^-1 = G G^H.
    worst = 0.0
    for i in range(100):
        n = 2 + (5 * i) % 63
        seq = random_riesz(n, seed=3000 + i)
        dual = minimal_dual(seq).columns
        w = dual @ dual.conj().T
        w_gram = seq.columns.conj().T @ w @ seq.columns
        residual = float(np.abs(w_gram - np.eye(n)).max())
        assert residual <= 1e-8
        worst = max(worst, residual)
    _pass(8, f"100 bases: W-Gram identity residual <= {worst:.1e}")


def test_criterion_9_cli_contract(tmp_path, capsys):
    # CSV round trip reproduces every entry (17-digit serialization is exact)
    for seed, (dim, count) in enumerate([(5, 7), (1, 1), (8, 3)]):
        seq = VectorSequence.from_columns(oracles.random_columns(seed, dim, count))
        path = tmp_path / f"roundtrip{seed}.csv"
        write_matrix(str(path), seq)
        back = read_matrix(str(path))
        denominator = np.maximum(np.abs(seq.columns), 1e-300)
        assert (np.abs(back.columns - seq.columns) / denominator).max() <= 1e-15

    # deterministic seeded outputs are byte-identical
    for run in ("a", "b"):
        assert cli_main(
            ["example", "riesz", "--n", "8", "--seed", "7", "-o", str(tmp_path / run)]
        ) == 0
        assert cli_main(
            ["family", "--gen", "riesz", "--sizes", "4,6,8", "--seed", "2",
             "--json", str(tmp_path / f"{run}.json")]
        ) == 0
    assert (tmp_path / "a_F.csv").read_bytes() == (tmp_path / "b_F.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    # documented exit codes, each exercised by a fixture input
    ok_path = tmp_path / "identity.csv"
    write_matrix(str(ok_path), orthonormal(3))
    bad_path = tmp_path / "bad.csv"
    bad_path.write_text("1,0\n0,oops\n")
    ill_path = tmp_path / "ill.csv"
    ill_path.write_text("1,1\n0,1e-10\n")
    dep_path = tmp_path / "dep.csv"
    dep_path.write_text("1,2\n0,0\n")
    observed = {
        0: cli_main(["analyze", str(ok_path), "--json", str(tmp_path / "ok.json")]),
        2: cli_main(["analyze", str(bad_path)]),
        3: cli_main(["dual", str(ill_path), "-o", str(tmp_path / "d3.csv")]),
        4: cli_main(["dual", str(dep_path), "-o", str(tmp_path / "d4.csv")]),
        5: cli_main(["gabor", "--set", "lattice", "--a", "5", "--max-index", "1"]),
    }
    capsys.readouterr()
    assert observed == {code: code for code in (0, 2, 3, 4, 5)}
    report = json.loads((tmp_path / "ok.json").read_text())
    assert report["schemaVersion"] == 1
    _pass(9, "round trip exact, seeded outputs byte-identical, exit codes 0/2/3/4/5 exercised")
