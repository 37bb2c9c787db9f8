"""Command-line front end.

Subcommands: analyze, dual, example, family, gabor.  Exit codes are stable:
0 ok; 2 an argument, flag value or input file that the library rejects with a
ValueError, an unreadable or unwritable path, a command whose largest dense
array (estimated from its flags or from an input file's shape) exceeds 1 GiB,
or a command that runs out of memory (MemoryError); 3 numeric failure; 4 no
biorthogonal dual; 5 unsafe Gabor truncation.  All randomness sits behind
--seed (default 0); identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from decimal import Context

import numpy as np

from . import diagnostics, duals, generators, matrixio, scaling
from .diagnostics import TWO_ROUTE_RTOL, VerdictKind
from .errors import (
    CriteriaDisagreementError,
    FitDomainError,
    IllConditionedError,
    NoBiorthogonalSequenceError,
    NotARieszBasisError,
    SingularOperatorError,
    TruncationError,
)
from .matrixio import SCHEMA_VERSION, finite_or_none
from .seqcore import RANK_TOL_SCALE, VectorSequence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_NO_DUAL = 4
EXIT_TRUNCATION = 5

#: Largest dense array, in bytes, that one command may allocate.  Commands
#: that would need more are refused as usage errors before anything is built.
_MAX_ARRAY_BYTES = 1 << 30


class UsageError(Exception):
    pass


def _check_size(what: str, rows: int, cols: int) -> int:
    """The bytes of a command's largest dense array, estimated as a rows x
    cols complex matrix; a command whose estimate exceeds _MAX_ARRAY_BYTES is
    refused, naming the estimate to 3 digits, also beyond the float range."""
    nbytes = 16 * rows * cols
    if nbytes > _MAX_ARRAY_BYTES:
        big = nbytes > sys.float_info.max
        size = Context(prec=3).create_decimal(nbytes).normalize() if big else nbytes
        raise UsageError(
            f"{what} needs a {rows}x{cols} complex array ({size:.3g} bytes), "
            f"over the {_MAX_ARRAY_BYTES}-byte limit"
        )
    return nbytes


def _aliases() -> dict:
    """Each family alias, also its `example` name, and the family's generator id."""
    return {family.alias: gid for gid, family in scaling._FAMILIES.items() if family.alias}


def _read_matrix(path: str) -> VectorSequence:
    """A matrix file, refused if max(dim, count)^2 complex entries exceed the limit.
    The Gram route allocates min(dim, count)^2 and the identity residual dim^2
    unless the file is tall (2 count < dim); the rule keeps max(dim, count)^2,
    so a wide file is refused past the same count as before.  The rule is
    applied to the file's row count and width, before any cell is converted."""

    def check_shape(rows: int, width: int) -> None:
        side = max(rows, width)
        _check_size(path, side, side)

    return matrixio.read_matrix(path, check_shape)


def _tolerances() -> dict:
    return {
        "rankToleranceScale": RANK_TOL_SCALE,
        "twoRouteRelative": TWO_ROUTE_RTOL,
        "biorthogonality": duals.BIORTHOGONALITY_TOL,
    }


def _emit(payload: dict, json_path) -> None:
    if json_path:
        matrixio.write_report(json_path, payload)
    else:
        sys.stdout.write(matrixio.report_text(payload))


def _analysis_payload(seq: VectorSequence, source: str) -> dict:
    # classify, gram_spectrum and the dual, with the biorthogonality residual
    # that accepted it, all read seq's spectral record.
    verdict = diagnostics.classify(seq)
    spectrum = diagnostics.gram_spectrum(seq)
    residuals = {"biorthogonality": None, "dualityIdentity": None}
    if verdict.kind is not VerdictKind.LINEARLY_DEPENDENT:
        try:
            partner, biorthogonality = duals._accepted_dual(seq)
        except IllConditionedError:
            pass
        else:
            residuals = {
                "biorthogonality": biorthogonality,
                "dualityIdentity": duals.duality_identity_residual(seq, partner),
            }
    return {
        "schemaVersion": SCHEMA_VERSION,
        "input": source,
        "bounds": {
            "rieszLower": finite_or_none(verdict.bounds.riesz_lower),
            "besselUpper": finite_or_none(verdict.bounds.bessel_upper),
        },
        "defect": verdict.bounds.completeness_defect,
        "conditioning": finite_or_none(verdict.bounds.conditioning),
        "gramSpectrum": {
            "lambdaMin": finite_or_none(spectrum.lambda_min),
            "lambdaMax": finite_or_none(spectrum.lambda_max),
            "bijective": spectrum.bijective,
        },
        "residuals": {name: finite_or_none(value) for name, value in residuals.items()},
        "verdict": verdict.kind.value,
        "tolerances": _tolerances(),
    }


def _cmd_analyze(args) -> int:
    seq = _read_matrix(args.input)
    _emit(_analysis_payload(seq, args.input), args.json)
    return EXIT_OK


def _cmd_dual(args) -> int:
    seq = _read_matrix(args.input)
    partner = duals.minimal_dual(seq)
    matrixio.write_matrix(args.out, partner)
    # The payload's residuals are those of this partner, read from seq's record.
    payload = _analysis_payload(seq, args.input)
    payload["dualPath"] = args.out
    _emit(payload, args.json)
    return EXIT_OK


def _example_systems(args):
    name, n = args.name, args.n
    if n < 1:
        raise UsageError("--n must be >= 1")
    generator_id = _aliases()[name]
    params = {"seed": args.seed, "complementDim": args.complement_dim}
    extra_rows = scaling._FAMILIES[generator_id].rows(params)
    _check_size(f"example {name} --n {n}", n + max(extra_rows, 0), n)
    # The member's size is its ambient dimension, n plus the extra rows; it
    # draws from the bare --seed, where a study's member draws from (seed, size).
    return scaling._build_member(generator_id, n + extra_rows, params)


def _cmd_example(args) -> int:
    primal, partner = _example_systems(args)
    prefix = args.out or args.name
    primal_path = f"{prefix}_F.csv"
    matrixio.write_matrix(primal_path, primal)
    written = [primal_path]
    if partner is not None:
        partner_path = f"{prefix}_G.csv"
        matrixio.write_matrix(partner_path, partner)
        written.append(partner_path)
    for path in written:
        sys.stdout.write(path + "\n")
    return EXIT_OK


def _parse_int_list(text: str, flag: str):
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"{flag} expects a comma-separated integer list: {exc}") from exc
    if not values:
        raise UsageError(f"{flag} expects a comma-separated integer list")
    return values


def _discretization(half_width: float, samples: int):
    """The Gabor grid of --half-width and a sampling rate; a rejected grid is a usage error."""
    try:
        return generators.GaborDiscretization(half_width, samples)
    except ValueError as exc:
        raise UsageError(f"--half-width {half_width} at {samples} samples per unit: {exc}") from exc


def _cmd_family(args) -> int:
    generator_id = _aliases().get(args.gen, args.gen)
    sizes = _parse_int_list(args.sizes, "--sizes")
    parameters = {
        "seed": args.seed,
        "probeIndex": args.probe_index,
        "complementDim": args.complement_dim,
        "halfWidth": args.half_width,
        "samplesPerUnit": args.samples,
    }
    spec = scaling.FamilySpec(generator_id, sizes, parameters)
    side = sizes[-1]
    nodes = scaling._FAMILIES[generator_id].nodes
    if nodes:
        # A member is grid x nodes; max(grid, nodes) squared is one simple rule.
        grid = _discretization(args.half_width, args.samples).sample_count
        side = max(grid, nodes(sizes[-1]))
    _check_size(f"family --gen {args.gen} --sizes {args.sizes}", side, side)
    report = scaling.run_family(spec)
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "input": f"family:{generator_id} sizes={','.join(map(str, sizes))} seed={args.seed}",
        "tolerances": _tolerances(),
    }
    payload.update(report.to_dict())
    _emit(payload, args.json)
    if args.csv:
        matrixio.write_atomic(args.csv, report.csv_text())
    return EXIT_OK


def _gabor_points(args, sample_count: int):
    """The point set of --set and its description, after a size check of its
    sample_count x nodes system whose nodes factor is also a node cap: from the
    flags before any node is built, or for --set file from its node-line count."""
    what = f"gabor --set {args.set}"

    def check_count(nodes: int) -> None:
        _check_size(what, max(sample_count, nodes), nodes)
    if args.set == "file":
        if not args.nodes:
            raise UsageError("--set file requires --nodes PATH")
        return matrixio.read_point_set(args.nodes, check_count), f"nodes {args.nodes}"
    [nodes] = (f.nodes for f in scaling._FAMILIES.values() if f.gabor_set == args.set)
    check_count(nodes(args.nmax if args.set == "als" else args.max_index))
    if args.set == "lattice":
        return generators.lattice_points(args.a, args.b, args.max_index), (
            f"lattice a={args.a} b={args.b} maxIndex={args.max_index}"
        )
    if args.set == "punctured":
        return generators.punctured_lattice(args.max_index), f"punctured maxIndex={args.max_index}"
    return generators.als_point_set(args.nmax), f"als nmax={args.nmax}"


def _cmd_gabor(args) -> int:
    # Every grid is checked before any point set is read or system built.
    disc = _discretization(args.half_width, args.samples)
    refine_discs = []
    if args.refine:
        rates = sorted(set(_parse_int_list(args.refine, "--refine")) | {args.samples})
        refine_discs = [_discretization(args.half_width, s) for s in rates]
    points, source = _gabor_points(args, (refine_discs or [disc])[-1].sample_count)
    # The bounds and the defect read the real twin where the nodes pair up;
    # only --dump-matrix needs the complex system.
    system = generators._gabor_twin(points, disc)
    lower, upper = diagnostics.riesz_bounds(system)
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "input": f"gabor {source} halfWidth={args.half_width} samples={args.samples}",
        "nodes": len(points),
        "gridSize": disc.sample_count,
        "bounds": {
            "rieszLower": finite_or_none(lower),
            "besselUpper": finite_or_none(upper),
        },
        "defect": diagnostics.completeness_defect(system),
        "tolerances": _tolerances(),
    }
    if refine_discs:
        # The base rate reuses `system`, so each rate is built and factored once.
        systems = (
            (d.samples_per_unit, system if d == disc else generators._gabor_twin(points, d))
            for d in refine_discs
        )
        payload["refinement"] = scaling._refinement_report(systems).to_dict()
    if args.dump_matrix:
        matrixio.write_matrix(args.dump_matrix, generators.gaussian_gabor(points, disc))
        payload["matrixPath"] = args.dump_matrix
    _emit(payload, args.json)
    return EXIT_OK


def _add_parameter(cmd: argparse.ArgumentParser, flag: str, name: str) -> None:
    """The flag of family parameter `name`, typed and defaulted by its entry
    in `scaling._PARAMETER_DEFAULTS`."""
    default = scaling._PARAMETER_DEFAULTS[name]
    cmd.add_argument(flag, type=type(default), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszlab",
        description="Diagnostics for finite vector systems: two-sided bounds, "
        "duals, named examples, Gabor systems and scaling studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("analyze", help="classify a matrix file and report its bounds")
    cmd.add_argument("input", help="complex-matrix CSV (columns are the vectors)")
    cmd.add_argument("--json", metavar="PATH", help="write the report here instead of stdout")
    cmd.set_defaults(func=_cmd_analyze)

    cmd = sub.add_parser("dual", help="write the minimal biorthogonal dual of a matrix file")
    cmd.add_argument("input")
    cmd.add_argument("--out", "-o", required=True, metavar="PATH", help="dual matrix CSV")
    cmd.add_argument("--json", metavar="PATH")
    cmd.set_defaults(func=_cmd_dual)

    cmd = sub.add_parser("example", help="write a named example system to CSV")
    cmd.add_argument("name", choices=tuple(_aliases()))
    cmd.add_argument("--n", type=int, required=True, help="size parameter of the construction")
    _add_parameter(cmd, "--seed", "seed")
    _add_parameter(cmd, "--complement-dim", "complementDim")
    cmd.add_argument("--out", "-o", metavar="PREFIX", help="output prefix (default: the name)")
    cmd.set_defaults(func=_cmd_example)

    cmd = sub.add_parser("family", help="run a truncation-scaling study")
    cmd.add_argument("--gen", required=True, help="generator name (young, weighted, ...)")
    cmd.add_argument("--sizes", required=True, help="comma-separated, strictly increasing")
    _add_parameter(cmd, "--seed", "seed")
    _add_parameter(cmd, "--probe-index", "probeIndex")
    _add_parameter(cmd, "--complement-dim", "complementDim")
    _add_parameter(cmd, "--half-width", "halfWidth")
    _add_parameter(cmd, "--samples", "samplesPerUnit")
    cmd.add_argument("--json", metavar="PATH")
    cmd.add_argument("--csv", metavar="PATH", help="per-size metrics as flat CSV")
    cmd.set_defaults(func=_cmd_family)

    cmd = sub.add_parser("gabor", help="build a Gaussian Gabor system and report bounds")
    cmd.add_argument("--set", required=True, choices=("lattice", "punctured", "als", "file"))
    cmd.add_argument("--max-index", type=int, default=2)
    cmd.add_argument("--nmax", type=int, default=1)
    cmd.add_argument("--a", type=float, default=1.0)
    cmd.add_argument("--b", type=float, default=1.0)
    cmd.add_argument("--nodes", metavar="PATH", help="point-set CSV for --set file")
    _add_parameter(cmd, "--half-width", "halfWidth")
    _add_parameter(cmd, "--samples", "samplesPerUnit")
    cmd.add_argument("--refine", metavar="RATES", help="extra sampling rates, e.g. 8,32")
    cmd.add_argument("--dump-matrix", metavar="PATH")
    cmd.add_argument("--json", metavar="PATH")
    cmd.set_defaults(func=_cmd_gabor)

    return parser


#: The parser of `main`, built on first use: parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    # The one place that maps an error to an exit code, by type.  Numeric errors
    # come first, as FitDomainError and LinAlgError are ValueErrors too.
    try:
        return args.func(args)
    except (
        IllConditionedError,
        CriteriaDisagreementError,
        FitDomainError,
        SingularOperatorError,
        NotARieszBasisError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, ValueError, OSError) as exc:  # MatrixParseError, DimensionError, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE
    except NoBiorthogonalSequenceError:
        print("error: no biorthogonal sequence exists (minimality fails)", file=sys.stderr)
        return EXIT_NO_DUAL
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION


if __name__ == "__main__":
    sys.exit(main())
