"""Truncation-scaling studies: how system metrics grow with size.

A family spec names a generator and a strictly increasing list of sizes.  Each
generator is one `_FAMILIES` record, all that `scaling` and `cli` know of it, so
a new family is one record: its build, the shape (dim, count) of its member of a
size and the parameters it reads.  The size is the ambient dimension (the Young
construction with ambient dimension n uses n-1 vectors), or for a Gabor family
the index bound of its `_POINT_SETS` kind, the `gabor --set` table, on the grid
of its parameters.  Every parameter of a family, an example or a point-set
kind has its default in `_PARAMETER_DEFAULTS` and is read by `_parameters`,
so a new one is one default, one flag and one name in a record's `reads`.

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
Every sampled Gabor system, of a Gabor family's member or of `gabor` at each
rate, is drawn from `_sampled`, which refuses an aliasing lowest rate before it
builds any.  The `gabor --refine` report is assembled as a study is, from one
row of bound constants per sampling rate (`_refinement_report`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import diagnostics, duals, generators, matrixio
from .errors import FitDomainError
from .generators import GaborDiscretization, GeneratedPair, PointSet2D
from .seqcore import VectorSequence, _error_bar, _independent

_EXPONENT_BAND = 0.2
_FIT_QUALITY_MIN = 0.9

#: Each parameter of a family, an example or a `gabor --set` kind and its default,
#: whose type is the parameter's; `_parameters` reads them all.
_PARAMETER_DEFAULTS = {"seed": 0, "probeIndex": 0, "complementDim": 1, "halfWidth": 6.0,
                       "samplesPerUnit": 16, "maxIndex": 2, "nmax": 1, "a": 1.0, "b": 1.0,
                       "nodes": ""}

#: The parameters of the Gabor grid, which every Gabor family and `gabor --set` kind reads.
_GRID = ("halfWidth", "samplesPerUnit")


class _Family(NamedTuple):
    """A generator family: its `family --gen` alias and `example` name, or None;
    the build of its member of a size, which calls `generators` when it runs, so
    a patched generator is the one called; the shape (dim, count) of that
    member, known before it is built, and the message refusing a size whose
    member has no vector; the parameters it reads besides probeIndex."""

    alias: Optional[str]
    build: Callable[[int, Mapping[str, object]], GeneratedPair]
    shape: Callable[[int, Mapping[str, object]], Tuple[int, int]] = lambda n, p: (n, n)
    too_small: str = ""
    reads: Tuple[str, ...] = ()


def _indexed(reads, build, count):
    """A `_POINT_SETS` kind whose points check their count at the index bound, first in `reads`."""
    points = lambda p, check_count: (check_count(count(p[reads[0]])), build(p))[1]
    return reads, points, count


def _node_file(p: Mapping[str, object], check_count) -> PointSet2D:
    """The points of `--set file`: its node file, which must be named."""
    if not p["nodes"]:
        raise ValueError("--set file requires --nodes PATH")
    return matrixio.read_point_set(p["nodes"], check_count)


#: Each `gabor --set` kind: the parameters it reads, the index bound or node file first;
#: its points at (parameters, check_count), which call `generators` or `matrixio` as they
#: run and check their node count first; the count at an index bound, if any.
_POINT_SETS = {
    "lattice": _indexed(("maxIndex", "a", "b", *_GRID),
                        lambda p: generators.lattice_points(p["a"], p["b"], p["maxIndex"]),
                        lambda index: (2 * index + 1) ** 2),
    "punctured": _indexed(("maxIndex", *_GRID), lambda p: generators.punctured_lattice(p["maxIndex"]),
                          lambda index: (2 * index + 1) ** 2 - 1),
    "als": _indexed(("nmax", *_GRID), lambda p: generators.als_point_set(p["nmax"]),
                    lambda index: 2 + 4 * index),
    "file": (("nodes", *_GRID), _node_file, None),
}


def _gabor_grid(half_width: float, samples: int) -> GaborDiscretization:
    """The Gabor grid of --half-width and a sampling rate; a rejected grid is a usage error."""
    try:
        return generators.GaborDiscretization(half_width, samples)
    except ValueError as exc:
        raise ValueError(f"--half-width {half_width} at {samples} samples per unit: {exc}") from exc


def _sampled(points: PointSet2D, grids: Sequence[GaborDiscretization]) -> Iterator[VectorSequence]:
    """The sampled Gabor system of `points` on each of `grids`, in their order, each
    built (`generators._gabor_twin`) as it is drawn, once a lowest rate at which a
    column aliases is refused: a column of modulation mu is resolved only when the
    rate exceeds 2 (|mu| + 2), as the Gaussian's spectrum reaches about 2 beyond mu."""
    top = max(abs(mu) for _, mu in points.nodes)
    bound = 2.0 * (top + 2.0)
    rate = min(grid.samples_per_unit for grid in grids)
    if not rate > bound:
        raise ValueError(f"{rate} samples per unit do not exceed 2 (max |mu| + 2) = {bound} "
                         f"at max |mu| {top}: the columns alias")
    return (generators._gabor_twin(points, grid) for grid in grids)


def _gabor_family(kind: str) -> _Family:
    """The family of `gabor --set` kind at index bound n, else at its defaults, on its grid."""
    reads, points, count = _POINT_SETS[kind]
    grid = lambda p: _gabor_grid(p["halfWidth"], p["samplesPerUnit"])
    build = lambda n, p: GeneratedPair(next(_sampled(
        points({**_PARAMETER_DEFAULTS, reads[0]: n}, lambda nodes: None), [grid(p)])))
    shape = lambda n, p: (grid(p).sample_count, count(n))
    return _Family(None, build, shape, reads=_GRID)


_FAMILIES = {
    "orthonormal": _Family("orthonormal", lambda n, p: GeneratedPair(generators.orthonormal(n))),
    "weightedPair": _Family("weighted", lambda n, p: generators.weighted_pair(n)),
    "alternatingWeightedPair": _Family(
        "alternating", lambda n, p: generators.alternating_weighted_pair(n)),
    "youngExample": _Family(
        "young", lambda n, p: generators.young_example(n - 1),
        lambda n, p: (n, n - 1), "youngExample needs ambient dimension >= 2"),
    "youngGeneral": _Family(
        "youngGeneral", lambda n, p: generators.young_general(
            n - p["complementDim"], n - p["complementDim"], p["complementDim"]),
        lambda n, p: (n, n - p["complementDim"]),
        "ambient dimension must exceed the complement dimension", ("complementDim",)),
    "rieszSeeded": _Family(
        "riesz", lambda n, p: GeneratedPair(generators.random_riesz(n, seed=p["seed"])),
        reads=("seed",)),
    "gaborPunctured": _gabor_family("punctured"),
    "gaborALS": _gabor_family("als"),
    "gaborFullLattice": _gabor_family("lattice"),
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


def _whole(value, name: str) -> int:
    """`int(value)`, refused where it differs from `value`, so 2.5 is not read as 2,
    or where there is none: inf, nan, None and text that is no integer."""
    try:
        whole = int(value)
    except (OverflowError, TypeError, ValueError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return whole


def _number(value, name: str) -> float:
    """`float(value)`, refused with the name where there is none: None and text
    that is no number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _parameters(owner: str, reads: Sequence[str], given: Mapping[str, object]) -> Mapping[str, object]:
    """The read-only parameters `reads` of a family, an example or a `gabor --set`
    kind, in `_PARAMETER_DEFAULTS` order: each given one converted to its
    default's type and the others at their defaults; a negative seed, and then
    a given parameter that `owner` does not read, is refused after all are converted."""
    convert = {int: _whole, float: _number, str: lambda value, name: value}
    typed = {name: convert[type(_PARAMETER_DEFAULTS[name])](value, name)
             for name, value in given.items() if name in _PARAMETER_DEFAULTS}
    if typed.get("seed", 0) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {typed['seed']}")
    unread = sorted(set(given) - set(reads))
    if unread:
        raise ValueError(f"{owner} does not read {unread}")
    return MappingProxyType({name: typed.get(name, default)
                             for name, default in _PARAMETER_DEFAULTS.items() if name in reads})


@dataclass(frozen=True)
class FamilySpec:
    """A generator, its sizes and the parameters it reads (`_parameters`)."""

    generator_id: str
    sizes: Tuple[int, ...]
    parameters: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.generator_id not in _FAMILIES:
            raise ValueError(
                f"unknown generator {self.generator_id!r}; expected one of {tuple(_FAMILIES)}"
            )
        sizes = tuple(_whole(s, "size") for s in self.sizes)
        if len(sizes) < 3:
            raise ValueError("a family needs at least three sizes for an exponent fit")
        if any(s < 1 for s in sizes) or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be positive and strictly increasing")
        object.__setattr__(self, "sizes", sizes)
        reads = ("probeIndex", *_FAMILIES[self.generator_id].reads)
        object.__setattr__(self, "parameters", _parameters(self.generator_id, reads, self.parameters))


@dataclass(frozen=True)
class SizeMetrics:
    """One report row.  `_extent`, max(dim, count) of the row's system, sizes
    its cells' error bars (`_error_bars`) and appears in no output."""

    size: int
    riesz_lower: float
    bessel_upper: float
    defect_distance: Optional[float]
    bessel_upper_dual: Optional[float]
    duality_residual: Optional[float]
    _extent: int = field(default=1, repr=False)


@dataclass(frozen=True)
class ScalingReport:
    per_size: Tuple[SizeMetrics, ...]
    fits: dict
    verdicts: dict

    def to_dict(self) -> dict:
        return {
            "perSize": [
                {"size": row.size, **{name: getattr(row, attr) for name, attr in METRIC_FIELDS}}
                for row in self.per_size
            ],
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
    r_squared = 1.0 if ss_tot == 0.0 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return GrowthFit(slope, r_squared)


def _trend_verdict(fit: Optional[GrowthFit], floored: bool) -> TrendVerdict:
    """A trusted fit's exponent outside the band decides; otherwise a series
    with a cell at the floor (within its error bar of 0) is bounded, and any
    other bounded below."""
    if fit is not None and fit.r_squared > _FIT_QUALITY_MIN:
        if fit.exponent > _EXPONENT_BAND:
            return TrendVerdict.DIVERGES
        if fit.exponent < -_EXPONENT_BAND:
            return TrendVerdict.VANISHES_TO_ZERO
    return TrendVerdict.STAYS_BOUNDED if floored else TrendVerdict.STAYS_BOUNDED_BELOW


def _build_member(generator_id: str, size: int, params: Mapping[str, object]):
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
    need no member built come first, read from its shape: a member without a
    vector is refused, then the probe index is checked against its dimension.
    The member of size n draws from the seed (seed, n), its own stream."""
    family = _FAMILIES[generator_id]
    with _size_errors(size):
        dim, count = family.shape(size, params)
        if count < 1:
            raise ValueError(family.too_small)
        index = params["probeIndex"]
        if not 0 <= index < dim:
            raise ValueError(f"probe index {index} outside ambient dimension {dim}")
        member_params = {k: (v, size) if k == "seed" else v for k, v in params.items()}
        system, partner = _build_member(generator_id, size, member_params)
        lower, upper = diagnostics.riesz_bounds(system)
        probe = np.zeros(system.dim)
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
    return SizeMetrics(size, lower, upper, defect_distance, dual_upper, duality_residual,
                       max(system.columns.shape))


def _error_bars(row: SizeMetrics) -> dict:
    """Each metric's rounding error bar, by attribute: of size the row's `_extent`
    and the scale of the cell's computation, B_F for both bounds, the norm
    bound max(sqrt(B_F), 1) of [F h] for the probe distance, B_G for the dual's
    bound and sqrt(B_F B_G) for the identity residual."""
    upper, dual_upper = row.bessel_upper, row.bessel_upper_dual
    scales = {"riesz_lower": upper, "bessel_upper": upper,
              "defect_distance": max(upper ** 0.5, 1.0)}
    if dual_upper is not None:
        scales.update(bessel_upper_dual=dual_upper, duality_residual=(upper * dual_upper) ** 0.5)
    return {attr: _error_bar(row._extent, scale) for attr, scale in scales.items()}


def _assemble_report(rows: Sequence[SizeMetrics]) -> ScalingReport:
    """Each metric's fit and verdict from its cells and their error bars.  A
    series with a cell within its bar of 0 touches the floor: it is rounding
    noise there, not a power law, and gets no fit.  A series whose cells
    agree within their bars, some one value lying in every cell's interval,
    is flat: it reads as constant, exponent 0.0 with r^2 1.0, as
    `fit_growth` reads exactly constant values."""
    bars = [_error_bars(row) for row in rows]
    fits = {}
    verdicts = {}
    for json_name, attr in METRIC_FIELDS:
        cells = [(row.size, getattr(row, attr), bar[attr])
                 for row, bar in zip(rows, bars) if getattr(row, attr) is not None]
        if not cells:
            continue
        sizes, values, errs = zip(*cells)
        floored = any(v <= e for v, e in zip(values, errs))
        fit = None
        if len(values) >= 3 and not floored:
            flat = max(v - e for v, e in zip(values, errs)) <= min(v + e for v, e in zip(values, errs))
            fit = GrowthFit(0.0, 1.0) if flat else fit_growth(sizes, values)
            fits[json_name] = fit
        verdicts[json_name] = _trend_verdict(fit, floored)
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


def _refinement_report(rates: Iterable[int], systems: Iterable[VectorSequence]) -> ScalingReport:
    """One report row per sampling rate and its sampled Gabor system, in rising rate
    order; `map` keeps no system past its row, so each goes before the next is built."""
    row = lambda rate, system: SizeMetrics(rate, *diagnostics.riesz_bounds(system), None, None,
                                           None, max(system.columns.shape))
    return _assemble_report(sorted(map(row, rates, systems), key=lambda row: row.size))
