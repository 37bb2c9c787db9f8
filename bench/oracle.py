"""Correctness oracle for one executed CLI command.

`check` compares a command's exit code, stdout, stderr and output files with
what the manifest says the inputs must produce: the verdict known by
construction, closed-form values, and independent re-derivations (the dual
file is parsed here and biorthogonality recomputed; Gabor bounds are bracketed
by Gershgorin discs from the closed-form Gram modulus).  It returns a list of
failure messages, empty when the command is correct.  Determinism, the
byte-identity of repeated commands, is checked by the runner.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

TWO_ROUTE_RTOL = 1e-9
BIORTHOGONALITY_TOL = 1e-8
IDENTITY_TOL = 1e-8
#: Relative error allowed on Riemann-sum Gabor inner products.
GABOR_RTOL = 1e-9
GABOR_NORM = 2.0 ** -0.5
NO_DUAL_MESSAGE = "no biorthogonal sequence exists"
FAMILY_CSV_HEADER = [
    "size", "rieszLowerF", "besselUpperF", "defectDistanceF", "besselUpperDual", "dualityResidual",
]


class Failures(list):
    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.append(message)

    def close(self, actual, expected, what: str, rtol: float = 0.0, atol: float = 0.0) -> None:
        ok = (
            actual is not None
            and math.isfinite(actual)
            and abs(actual - expected) <= rtol * abs(expected) + atol
        )
        self.expect(ok, f"{what} = {actual!r}, expected {expected!r}")


def read_matrix_csv(path: str) -> np.ndarray:
    """Parse the complex-matrix CSV format without rieszlab."""
    with open(path, "r", encoding="utf-8") as handle:
        rows = [line.strip() for line in handle if line.strip() and not line.startswith("#")]
    return np.array(
        [[complex(cell.replace("i", "j")) for cell in row.split(",")] for row in rows],
        dtype=complex,
    )


def check(spec: dict, rc, stdout: str, stderr: str) -> list:
    failures = Failures()
    if rc != spec["exit"]:
        failures.append(f"exit code {rc}, expected {spec['exit']}: {stderr.strip()[:200]}")
        return failures
    kind = spec["type"]
    if kind == "dual" and rc == 4:
        failures.expect(NO_DUAL_MESSAGE in stderr, f"exit 4 without its message: {stderr!r}")
        failures.expect(stdout == "", "exit 4 printed to stdout")
        for path in (spec["out"], spec["json"]):
            failures.expect(not os.path.exists(path), f"exit 4 but {path} was written")
        return failures
    failures.expect(stderr == "", f"unexpected stderr: {stderr.strip()[:200]}")
    try:
        if kind == "analyze":
            _check_analysis(failures, spec, json.loads(stdout))
        elif kind == "dual":
            failures.expect(stdout == "", "dual with --json printed to stdout")
            with open(spec["json"], "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            _check_analysis(failures, spec, payload)
            failures.expect(payload.get("dualPath") == spec["out"], "dualPath names another file")
            _check_dual_file(failures, spec)
        elif kind == "family":
            _check_family(failures, spec, json.loads(stdout))
        elif kind == "gabor":
            _check_gabor(failures, spec, json.loads(stdout))
        else:
            failures.append(f"unknown check type {kind!r}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return failures


def _check_analysis(failures: Failures, spec: dict, payload: dict) -> None:
    verdict = spec["verdict"]
    failures.expect(payload["schemaVersion"] == 1, "schemaVersion is not 1")
    failures.expect(payload["input"] == spec["input"], "input names another file")
    failures.expect(payload["verdict"] == verdict, f"verdict {payload['verdict']}, expected {verdict}")
    failures.expect(payload["defect"] == spec["defect"],
                    f"defect {payload['defect']}, expected {spec['defect']}")
    lower, upper = payload["bounds"]["rieszLower"], payload["bounds"]["besselUpper"]
    failures.expect(0.0 <= lower <= upper * (1 + 1e-12) and upper > 0.0,
                    f"bounds out of order: A={lower!r}, B={upper!r}")
    if spec["A"] is not None:
        failures.close(lower, spec["A"], "rieszLower", rtol=TWO_ROUTE_RTOL)
    if spec["B"] is not None:
        failures.close(upper, spec["B"], "besselUpper", rtol=TWO_ROUTE_RTOL)
    if spec["lowerExactlyZero"]:
        failures.expect(lower == 0.0, f"wide system has rieszLower {lower!r}, expected exactly 0")
    spectrum = payload["gramSpectrum"]
    failures.expect(spectrum["bijective"] is (verdict != "LinearlyDependent"),
                    f"gramSpectrum.bijective is {spectrum['bijective']}")
    residuals = payload["residuals"]
    conditioning = payload["conditioning"]
    if verdict == "LinearlyDependent":
        failures.expect(lower <= 1e-20 * upper, f"dependent system has rieszLower {lower!r}")
        failures.expect(residuals == {"biorthogonality": None, "dualityIdentity": None},
                        "dependent system reports dual residuals")
        return
    failures.close(conditioning, upper / lower, "conditioning", rtol=1e-12)
    failures.expect(residuals["biorthogonality"] <= BIORTHOGONALITY_TOL,
                    f"biorthogonality residual {residuals['biorthogonality']!r}")
    # The minimal dual reconstructs the span: the identity residual is 0 for
    # a basis and the norm of a nonzero orthogonal projection, 1, otherwise.
    expected_identity = 0.0 if verdict == "RieszBasis" else 1.0
    failures.close(residuals["dualityIdentity"], expected_identity, "dualityIdentity",
                   atol=IDENTITY_TOL)


def _check_dual_file(failures: Failures, spec: dict) -> None:
    primal = read_matrix_csv(spec["input"])
    dual = read_matrix_csv(spec["out"])
    failures.expect(dual.shape == (spec["dim"], spec["count"]), f"dual shape {dual.shape}")
    if dual.shape == primal.shape:
        residual = float(np.abs(dual.conj().T @ primal - np.eye(spec["count"])).max())
        failures.expect(residual <= BIORTHOGONALITY_TOL,
                        f"dual file fails biorthogonality: residual {residual:.3e}")


def _family_closed_forms(spec: dict, size: int) -> dict:
    """Per-size closed forms; empty for the seeded and Gabor families."""
    generator = spec["generator"]
    if generator == "youngExample":
        # (e_k + e_1), k = 2..size, against (e_k): Gram I + J, span distance of e_1.
        return {"rieszLowerF": 1.0, "besselUpperF": float(size),
                "defectDistanceF": 1.0 / math.sqrt(size), "besselUpperDual": 1.0,
                "dualityResidual": math.sqrt(size)}
    if generator == "weightedPair":
        return {"rieszLowerF": 1.0 / size**2, "besselUpperF": 1.0, "defectDistanceF": 0.0,
                "besselUpperDual": float(size) ** 2, "dualityResidual": 0.0}
    if generator == "alternatingWeightedPair":
        largest_even = size - size % 2
        largest_odd = size - 1 + size % 2
        return {"rieszLowerF": 1.0 / largest_odd**2, "besselUpperF": float(largest_even) ** 2,
                "defectDistanceF": 0.0, "besselUpperDual": float(largest_odd) ** 2,
                "dualityResidual": 0.0}
    if generator == "youngGeneral":
        c = spec["complementDim"]
        classes = [len(range(r, size - c, c)) for r in range(c)]
        largest = max(classes)
        return {"rieszLowerF": 1.0 if largest >= 2 else 2.0, "besselUpperF": 1.0 + largest,
                "defectDistanceF": 1.0 / math.sqrt(classes[0] + 1), "besselUpperDual": 1.0,
                "dualityResidual": math.sqrt(largest + 1)}
    return {}


def _check_family(failures: Failures, spec: dict, payload: dict) -> None:
    rows = payload["perSize"]
    failures.expect([row["size"] for row in rows] == spec["sizes"], "perSize rows do not match sizes")
    with open(spec["csv"], "r", encoding="utf-8", newline="") as handle:
        table = list(csv.reader(handle))
    failures.expect(table[0] == FAMILY_CSV_HEADER, f"CSV header {table[0]}")
    failures.expect(len(table) == len(rows) + 1, "CSV and JSON row counts differ")
    for row, cells in zip(rows, table[1:]):
        for name, cell in zip(FAMILY_CSV_HEADER, cells):
            value = row[name]
            failures.expect((cell == "" and value is None) or (cell != "" and float(cell) == value),
                            f"size {row['size']}: CSV {name}={cell!r} but JSON {value!r}")
    generator = spec["generator"]
    for index, row in enumerate(rows):
        size = row["size"]
        lower, upper = row["rieszLowerF"], row["besselUpperF"]
        failures.expect(0.0 < lower <= upper * (1 + 1e-12), f"size {size}: A={lower!r}, B={upper!r}")
        for name, expected in _family_closed_forms(spec, size).items():
            failures.close(row[name], expected, f"size {size} {name}",
                           rtol=TWO_ROUTE_RTOL, atol=0.0 if expected else IDENTITY_TOL)
        if generator == "rieszSeeded":
            failures.close(row["besselUpperDual"], 1.0 / lower, f"size {size} besselUpperDual",
                           rtol=1e-15)
            failures.expect(row["defectDistanceF"] <= IDENTITY_TOL, f"size {size}: basis misses e_1")
            failures.expect(row["dualityResidual"] <= IDENTITY_TOL,
                            f"size {size}: dualityResidual {row['dualityResidual']!r}")
        elif generator == "gaborPunctured":
            _check_gabor_bounds(failures, spec["nodesPerSize"][index], lower, upper, f"size {size}")
            failures.close(row["besselUpperDual"], 1.0 / lower, f"size {size} besselUpperDual",
                           rtol=1e-15)
            failures.close(row["dualityResidual"], 1.0, f"size {size} dualityResidual",
                           atol=IDENTITY_TOL)
            failures.expect(0.99 < row["defectDistanceF"] <= 1.0 + 1e-12,
                            f"size {size}: edge sample distance {row['defectDistanceF']!r}")
    verdicts = payload["verdicts"]
    fits = payload["fits"]
    if generator == "weightedPair":
        failures.close(fits["besselUpperDual"]["exponent"], 2.0, "besselUpperDual exponent", atol=1e-9)
        failures.expect(verdicts["besselUpperDual"] == "Diverges", "besselUpperDual does not diverge")
        failures.expect(verdicts["rieszLowerF"] == "VanishesToZero", "rieszLowerF does not vanish")
    elif generator == "youngExample":
        failures.close(fits["defectDistanceF"]["exponent"], -0.5, "defectDistanceF exponent",
                       atol=1e-9)
        failures.expect(verdicts["defectDistanceF"] == "VanishesToZero", "span distance does not vanish")
        failures.expect(verdicts["besselUpperF"] == "Diverges", "besselUpperF does not diverge")
    elif generator == "rieszSeeded":
        # Rounding-level span distances get no fit and read as bounded.
        failures.expect(verdicts["defectDistanceF"] == "StaysBounded",
                        f"defectDistanceF verdict {verdicts['defectDistanceF']}")


def _gershgorin_radius(nodes) -> float:
    """Largest off-diagonal row sum of the closed-form Gram modulus."""
    radius = 0.0
    for i, (t1, m1) in enumerate(nodes):
        row = 0.0
        for j, (t2, m2) in enumerate(nodes):
            if i != j:
                row += math.exp(-math.pi * ((t1 - t2) ** 2 + (m1 - m2) ** 2) / 2.0)
        radius = max(radius, GABOR_NORM * row)
    return radius


def _check_gabor_bounds(failures: Failures, nodes, lower, upper, what: str) -> None:
    """A <= 2^-1/2 <= B, both inside the Gershgorin discs of the exact Gram."""
    radius = _gershgorin_radius(nodes)
    slack = GABOR_RTOL * GABOR_NORM
    failures.expect(0.0 < lower <= GABOR_NORM + slack, f"{what}: A={lower!r} above the diagonal")
    failures.expect(GABOR_NORM - slack <= upper <= GABOR_NORM + radius + slack,
                    f"{what}: B={upper!r} outside [{GABOR_NORM}, {GABOR_NORM + radius}]")
    failures.expect(lower >= GABOR_NORM - radius - slack,
                    f"{what}: A={lower!r} below the Gershgorin bound {GABOR_NORM - radius}")


def _check_gabor(failures: Failures, spec: dict, payload: dict) -> None:
    nodes = spec["nodes"]
    failures.expect(payload["nodes"] == len(nodes), f"{payload['nodes']} nodes, expected {len(nodes)}")
    failures.expect(payload["gridSize"] == spec["gridSize"], f"gridSize {payload['gridSize']}")
    failures.expect(payload["defect"] == spec["gridSize"] - len(nodes),
                    f"defect {payload['defect']}, expected {spec['gridSize'] - len(nodes)}")
    lower, upper = payload["bounds"]["rieszLower"], payload["bounds"]["besselUpper"]
    _check_gabor_bounds(failures, nodes, lower, upper, "bounds")
    refinement = payload["refinement"]
    rows = refinement["perSize"]
    failures.expect([row["size"] for row in rows] == spec["rates"], "refinement rates differ")
    for row in rows:
        # Refining the grid must not move the bounds: they belong to the system.
        failures.close(row["rieszLowerF"], lower, f"rate {row['size']} rieszLower",
                       atol=GABOR_RTOL * upper)
        failures.close(row["besselUpperF"], upper, f"rate {row['size']} besselUpper",
                       rtol=GABOR_RTOL)
    if spec["supercritical"]:
        # Seip-Wallsten: below critical density the system is a Riesz sequence.
        failures.expect(refinement["verdicts"]["rieszLowerF"] == "StaysBoundedBelow",
                        f"supercritical lattice: A verdict {refinement['verdicts']['rieszLowerF']}")
