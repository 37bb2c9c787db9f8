"""Truncation-scaling studies: how system metrics grow with size.

A family spec names a generator and a strictly increasing list of sizes.  Each
generator is one `_FAMILIES` record, all that `scaling` and `cli` know of it, so
a new family is one record plus its generator.  The size is the ambient
dimension (the Young construction with ambient dimension n uses n-1 vectors),
or for a Gabor family the lattice index bound, on the discretization's grid.

Per size the study records the two-sided bound constants, the distance from a
probe vector to the span, the dual's upper bound constant and the
reconstruction-identity residual, checks the paper's inequalities A_F B_G >= 1
and B_F A_G >= 1 against a designated partner, then fits log(metric) against
log(size) and turns the exponents into coarse asymptotic verdicts.  A family without a
designated partner gets its residual from the rank decision, not from a built
dual: the minimal dual's reconstruction map is the orthogonal projector onto
the span, so the residual is exactly 0 for a complete system and 1 otherwise.

`run_family` evaluates the sizes one after another, smallest first, on the
calling thread, checking each size's preconditions before building its
member, so a failing size stops the study before any larger member is built.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import diagnostics, duals, generators
from .errors import FitDomainError
from .generators import GaborDiscretization, GeneratedPair, PointSet2D
from .seqcore import VectorSequence, _independent

#: Values below this are treated as "essentially zero" by the verdict rules.
ESSENTIALLY_ZERO = 1e-6

_EXPONENT_BAND = 0.2
_FIT_QUALITY_MIN = 0.9

#: Each family parameter and its default, whose type is the parameter's.
_PARAMETER_DEFAULTS = {
    "seed": 0, "probeIndex": 0, "complementDim": 1, "halfWidth": 6.0, "samplesPerUnit": 16
}


class _Family(NamedTuple):
    """A generator family: its `family --gen` alias and `example` name, or None;
    the build of its member of a size, which calls `generators` when it runs,
    so a wrapped or patched generator is the one called; the rows a member has
    beyond its vectors, which `example` adds to --n, and the message refusing a
    size of no more rows; for a Gabor family, its `gabor --set` kind and the node
    count of an index bound, which make the grid the ambient dimension."""

    alias: Optional[str]
    build: Callable[[int, Mapping[str, object]], GeneratedPair]
    rows: Callable[[Mapping[str, object]], int] = lambda p: 0
    too_small: str = ""
    gabor_set: Optional[str] = None
    nodes: Optional[Callable[[int], int]] = None


_FAMILIES = {
    "orthonormal": _Family("orthonormal", lambda n, p: GeneratedPair(generators.orthonormal(n))),
    "weightedPair": _Family("weighted", lambda n, p: generators.weighted_pair(n)),
    "alternatingWeightedPair": _Family(
        "alternating", lambda n, p: generators.alternating_weighted_pair(n)),
    "youngExample": _Family(
        "young", lambda n, p: generators.young_example(n - 1),
        lambda p: 1, "youngExample needs ambient dimension >= 2"),
    "youngGeneral": _Family(
        "youngGeneral", lambda n, p: generators.young_general(
            n - p["complementDim"], n - p["complementDim"], p["complementDim"]),
        lambda p: p["complementDim"], "ambient dimension must exceed the complement dimension"),
    "rieszSeeded": _Family(
        "riesz", lambda n, p: GeneratedPair(generators.random_riesz(n, seed=p["seed"]))),
    "gaborPunctured": _Family(
        None, lambda n, p: _gabor_member(generators.punctured_lattice(n), p),
        gabor_set="punctured", nodes=lambda index: (2 * index + 1) ** 2),  # counted as full
    "gaborALS": _Family(
        None, lambda n, p: _gabor_member(generators.als_point_set(n), p),
        gabor_set="als", nodes=lambda index: 2 + 4 * index),
    "gaborFullLattice": _Family(
        None, lambda n, p: _gabor_member(generators.lattice_points(1.0, 1.0, n), p),
        gabor_set="lattice", nodes=lambda index: (2 * index + 1) ** 2),
}

#: JSON metric name -> SizeMetrics attribute.
METRIC_FIELDS = (
    ("rieszLowerF", "riesz_lower"),
    ("besselUpperF", "bessel_upper"),
    ("defectDistanceF", "defect_distance"),
    ("besselUpperDual", "bessel_upper_dual"),
    ("dualityResidual", "duality_residual"),
)


class TrendVerdict(str, Enum):
    DIVERGES = "Diverges"
    VANISHES_TO_ZERO = "VanishesToZero"
    STAYS_BOUNDED = "StaysBounded"
    STAYS_BOUNDED_BELOW = "StaysBoundedBelow"


class GrowthFit(NamedTuple):
    exponent: float
    r_squared: float


@dataclass(frozen=True)
class FamilySpec:
    """A generator, its sizes and its read-only parameters; those left out take their defaults."""

    generator_id: str
    sizes: Tuple[int, ...]
    parameters: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.generator_id not in _FAMILIES:
            raise ValueError(
                f"unknown generator {self.generator_id!r}; expected one of {tuple(_FAMILIES)}"
            )
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) < 3:
            raise ValueError("a family needs at least three sizes for an exponent fit")
        if any(s < 1 for s in sizes) or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be positive and strictly increasing")
        unknown = sorted(set(self.parameters) - set(_PARAMETER_DEFAULTS))
        if unknown:
            raise ValueError(f"unknown parameters {unknown}; known: {tuple(_PARAMETER_DEFAULTS)}")
        parameters = MappingProxyType({
            name: type(default)(self.parameters.get(name, default))
            for name, default in _PARAMETER_DEFAULTS.items()
        })
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "parameters", parameters)


@dataclass(frozen=True)
class SizeMetrics:
    size: int
    riesz_lower: float
    bessel_upper: float
    defect_distance: Optional[float]
    bessel_upper_dual: Optional[float]
    duality_residual: Optional[float]


@dataclass(frozen=True)
class ScalingReport:
    per_size: Tuple[SizeMetrics, ...]
    fits: dict
    verdicts: dict

    def to_dict(self) -> dict:
        rows = []
        for row in self.per_size:
            record = {"size": row.size}
            for json_name, attr in METRIC_FIELDS:
                record[json_name] = getattr(row, attr)
            rows.append(record)
        return {
            "perSize": rows,
            "fits": {
                name: {"exponent": fit.exponent, "r2": fit.r_squared}
                for name, fit in self.fits.items()
            },
            "verdicts": {name: verdict.value for name, verdict in self.verdicts.items()},
        }

    def csv_text(self) -> str:
        header = "size," + ",".join(name for name, _ in METRIC_FIELDS)
        lines = [header]
        for row in self.per_size:
            cells = [str(row.size)]
            for _, attr in METRIC_FIELDS:
                value = getattr(row, attr)
                cells.append("" if value is None else format(value, ".17g"))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def fit_growth(sizes: Sequence[int], values: Sequence[float]) -> GrowthFit:
    """Least-squares slope of log(value) against log(size), with r^2.

    Constant values give slope 0 with r^2 = 1 (the fit is exact).
    """
    s = np.asarray(sizes, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.ndim != 1 or s.shape != v.shape or s.size < 3:
        raise ValueError("need matching size/value lists of length >= 3")
    if not np.all(np.isfinite(s) & (s > 0.0)) or np.all(s == s[0]):
        raise ValueError("sizes must be positive, finite and not all equal")
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise FitDomainError("growth fits require strictly positive finite values")
    x = np.log(s)
    y = np.log(v)
    x_centered = x - x.mean()
    slope = float(x_centered @ (y - y.mean()) / (x_centered @ x_centered))
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (slope * x + intercept)
    ss_res = float(residuals @ residuals)
    ss_tot = float((y - y.mean()) @ (y - y.mean()))
    if ss_tot == 0.0:
        r_squared = 1.0
    else:
        r_squared = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return GrowthFit(slope, r_squared)


def _trend_verdict(values: Sequence[float], fit: Optional[GrowthFit]) -> TrendVerdict:
    if fit is not None and fit.r_squared > _FIT_QUALITY_MIN:
        if fit.exponent > _EXPONENT_BAND:
            return TrendVerdict.DIVERGES
        if fit.exponent < -_EXPONENT_BAND:
            return TrendVerdict.VANISHES_TO_ZERO
    if min(values) > ESSENTIALLY_ZERO:
        return TrendVerdict.STAYS_BOUNDED_BELOW
    return TrendVerdict.STAYS_BOUNDED


def _gabor_disc(params: dict) -> GaborDiscretization:
    return GaborDiscretization(params["halfWidth"], params["samplesPerUnit"])


def _gabor_member(points: PointSet2D, params: Mapping[str, object]) -> GeneratedPair:
    return GeneratedPair(generators._gabor_twin(points, _gabor_disc(params)))


def _build_member(generator_id: str, size: int, params: dict):
    """Build one truncation; returns (system, designated partner or None)."""
    pair = _FAMILIES[generator_id].build(size, params)
    return pair.primal, pair.partner


@contextmanager
def _size_errors(size: int):
    """Prefixes "size N: " to an error raised inside, where its type can be
    rebuilt from a message alone; any other error passes through unchanged."""
    try:
        yield
    except Exception as exc:
        try:
            annotated = type(exc)(f"size {size}: {exc}")
        except Exception:
            annotated = None
        if annotated is None:
            raise
        raise annotated from exc


def _evaluate_size(generator_id: str, size: int, params: dict) -> SizeMetrics:
    """One report row, computed on the calling thread.  The preconditions that
    need no member built come first: the family's size rule, then the probe
    index against the size's ambient dimension (the grid for a Gabor family).
    The member of size n draws from the seed (seed, n), its own stream."""
    family = _FAMILIES[generator_id]
    with _size_errors(size):
        if size <= family.rows(params):
            raise ValueError(family.too_small)
        dim = _gabor_disc(params).sample_count if family.nodes else size
        index = params["probeIndex"]
        if not 0 <= index < dim:
            raise ValueError(f"probe index {index} outside ambient dimension {dim}")
        member_params = {**params, "seed": (params["seed"], size)}
        system, partner = _build_member(generator_id, size, member_params)
        lower, upper = diagnostics.riesz_bounds(system)
        probe = np.zeros(system.dim, dtype=complex)
        probe[index] = 1.0
        defect_distance = diagnostics.span_distance(system, probe)
        dual_upper = duality_residual = None
        if partner is not None:
            dual_upper = diagnostics.bessel_bound(partner)
            diagnostics._pair_inequality(system, partner)
            duality_residual = duals.duality_identity_residual(system, partner)
        elif _independent(system):
            # The minimal dual's Gram is the inverse Gram, and its
            # reconstruction map is the projector onto the span, so both
            # metrics are available without forming the dual.
            dual_upper = 1.0 / lower
            duality_residual = 0.0 if diagnostics.completeness_defect(system) == 0 else 1.0
    return SizeMetrics(size, lower, upper, defect_distance, dual_upper, duality_residual)


def _assemble_report(rows: Sequence[SizeMetrics]) -> ScalingReport:
    fits = {}
    verdicts = {}
    for json_name, attr in METRIC_FIELDS:
        pairs = [(row.size, getattr(row, attr)) for row in rows if getattr(row, attr) is not None]
        if not pairs:
            continue
        sizes = [s for s, _ in pairs]
        values = [v for _, v in pairs]
        fit = None
        # Series touching the essentially-zero floor are rounding noise, not
        # power laws; they are reported without a growth fit.
        if len(values) >= 3 and min(values) > ESSENTIALLY_ZERO:
            fit = fit_growth(sizes, values)
            fits[json_name] = fit
        verdicts[json_name] = _trend_verdict(values, fit)
    return ScalingReport(tuple(rows), fits, verdicts)


def run_family(spec: FamilySpec) -> ScalingReport:
    """Evaluate a generator family across its sizes and fit growth exponents.

    The sizes are evaluated one after another, smallest first, on the
    calling thread, so no larger size is built after a failing one.  A size's
    preconditions fail only if they fail at every smaller size (a size rule
    fails below a threshold, and the probe bound, the ambient dimension,
    does not decrease with size), so a precondition failure is reported at
    the smallest size, before any member is built.
    """
    return _assemble_report(
        [_evaluate_size(spec.generator_id, s, spec.parameters) for s in spec.sizes]
    )


def _refinement_report(systems: Iterable[Tuple[int, VectorSequence]]) -> ScalingReport:
    """One report row per (sampling rate, sampled Gabor system) pair, in the given order."""
    return _assemble_report([
        SizeMetrics(rate, *diagnostics.riesz_bounds(system), None, None, None)
        for rate, system in systems
    ])


def gabor_refinement_study(
    points: PointSet2D, discretizations: Sequence[GaborDiscretization]
) -> ScalingReport:
    """Bound constants of one Gabor system under grid refinement.

    Rows are keyed by samples_per_unit; stable values across refinements mean
    the discrete bounds track the underlying system rather than the grid.
    """
    discs = list(discretizations)
    if not discs:
        raise ValueError("need at least one discretization")
    rates = [d.samples_per_unit for d in discs]
    if any(b <= a for a, b in zip(rates, rates[1:])):
        raise ValueError("discretizations must have strictly increasing sampling rates")
    return _refinement_report(
        (disc.samples_per_unit, generators.gaussian_gabor(points, disc)) for disc in discs
    )
