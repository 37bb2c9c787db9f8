"""Command-line front end.

Subcommands: analyze, dual, example, family, gabor.  Exit codes are stable:
0 ok; 2 an argument, flag value or input file that the library rejects with a
ValueError, a flag the chosen family or point set does not read, an
unreadable or unwritable path, an output path that names an input's or another
output's file, a command whose largest dense array (estimated
from its flags or from an input file's shape) exceeds 1 GiB, or a command that
runs out of memory (MemoryError); 3 numeric failure; 4 no biorthogonal dual;
5 unsafe Gabor truncation.  All randomness sits behind --seed (default 0);
identical invocations produce byte-identical outputs.  Every parameter flag
is read by `scaling._parameters` before anything else the flags decide.
`gabor` reads its point set from `scaling._POINT_SETS` and its systems from
`scaling._sampled`, as the Gabor families do, and adds the size check and the report.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from decimal import Context
from itertools import chain

import numpy as np

from . import diagnostics, duals, generators, matrixio, scaling
from .errors import (
    CriteriaDisagreementError,
    FitDomainError,
    IllConditionedError,
    NoBiorthogonalSequenceError,
    TruncationError,
)
from .matrixio import SCHEMA_VERSION, finite_or_none
from .seqcore import ERROR_BAR_FACTOR, RANK_TOL_SCALE, VectorSequence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_NO_DUAL = 4
EXIT_TRUNCATION = 5

#: Largest dense array, in bytes, that one command may allocate.  Commands
#: that would need more are refused as usage errors before anything is built.
_MAX_ARRAY_BYTES = 1 << 30


def _check_size(what: str, rows: int, cols: int) -> int:
    """The bytes of a command's largest dense array, estimated as a rows x
    cols complex matrix; a command whose estimate exceeds _MAX_ARRAY_BYTES is
    refused, naming the estimate to 3 digits, also beyond the float range."""
    nbytes = 16 * rows * cols
    if nbytes > _MAX_ARRAY_BYTES:
        big = nbytes > sys.float_info.max
        size = Context(prec=3).create_decimal(nbytes).normalize() if big else nbytes
        raise ValueError(
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
    one bound for every shape.  It is applied to the file's row count and
    width, before any cell is converted."""

    def check_shape(rows: int, width: int) -> None:
        side = max(rows, width)
        _check_size(path, side, side)

    return matrixio.read_matrix(path, check_shape)


#: The path flags of every command, by dest: the files it reads, then those it writes.
_PATHS = {"input": "input", "nodes": "--nodes", "out": "--out", "csv": "--csv",
          "dump_matrix": "--dump-matrix", "json": "--json"}


def _refuse_shared_paths(args) -> None:
    """Refuses an output flag that names an input's or another output's file,
    before any file is read or written.  `write_atomic` replaces an output's
    directory entry, the real path of its parent plus its base name, so a
    symlink named as an output is replaced, not its target; an input is read
    through its links, so it is also known by its own real path."""
    named = {}  # each entry or real path named so far, and the flag that named it
    for dest, flag in _PATHS.items():
        path = getattr(args, dest, None)
        if path:
            head, tail = os.path.split(path)
            entry = os.path.join(os.path.realpath(head), tail)
            if entry in named:
                raise ValueError(f"{named[entry]} and {flag} name the same file {path}")
            named[entry] = flag
            if dest in ("input", "nodes"):
                named[os.path.realpath(path)] = flag


def _emit(payload: dict, json_path) -> None:
    """The report `payload` in its envelope, the schema version and the
    tolerance constants, to `json_path` or else stdout.  `twoRouteRelative`
    is a schema-1 key that no check reads: the routes are compared within
    error bars of `errorBarFactor`."""
    payload = {
        **payload,
        "schemaVersion": SCHEMA_VERSION,
        "tolerances": {
            "rankToleranceScale": RANK_TOL_SCALE,
            "twoRouteRelative": 1e-8,
            "biorthogonality": duals.BIORTHOGONALITY_TOL,
            "errorBarFactor": ERROR_BAR_FACTOR,
        },
    }
    if json_path:
        matrixio.write_report(json_path, payload)
    else:
        sys.stdout.write(matrixio.report_text(payload))


def _analysis_payload(seq: VectorSequence, source: str) -> dict:
    # classify, gram_spectrum and the dual's outcome, with the biorthogonality
    # residual that accepted it, all read seq's spectral record.
    verdict = diagnostics.classify(seq)
    spectrum = diagnostics.gram_spectrum(seq)
    outcome = duals._dual_outcome(seq)
    residuals = {"biorthogonality": None, "dualityIdentity": None}
    if isinstance(outcome, duals._AcceptedDual):
        residuals = {
            "biorthogonality": outcome.biorthogonality_residual,
            "dualityIdentity": duals.duality_identity_residual(seq, outcome.partner),
        }
    return {
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
    }


def _cmd_analyze(args) -> int:
    seq = _read_matrix(args.input)
    _emit(_analysis_payload(seq, args.input), args.json)
    return EXIT_OK


def _cmd_dual(args) -> int:
    seq = _read_matrix(args.input)
    partner = duals.minimal_dual(seq)
    # The payload's residuals are those of this partner, read from seq's
    # record; every check runs before a file is written.
    payload = _analysis_payload(seq, args.input)
    matrixio.write_matrix(args.out, partner)
    payload["dualPath"] = args.out
    _emit(payload, args.json)
    return EXIT_OK


def _given(args) -> dict:
    """The parameter flags given; one left out is not in `args` and takes its default."""
    return {k: v for k, v in vars(args).items() if k in scaling._PARAMETER_DEFAULTS}


def _cmd_example(args) -> int:
    name, n = args.name, args.n
    if n < 1:
        raise ValueError("--n must be >= 1")
    generator_id = _aliases()[name]
    family = scaling._FAMILIES[generator_id]
    params = scaling._parameters(generator_id, family.reads, _given(args))
    dim, count = family.shape(n, params)
    _check_size(f"example {name} --n {n}", n + max(dim - count, 0), n)
    # The member's size is its ambient dimension, n plus its extra rows dim - count;
    # it draws from the bare --seed, where a study's member draws from (seed, size).
    primal, partner = scaling._build_member(generator_id, n + dim - count, params)
    written = [(f"{args.out or name}_{side}.csv", system)
               for side, system in (("F", primal), ("G", partner)) if system is not None]
    for path, system in written:
        matrixio.write_matrix(path, system)
    sys.stdout.write("".join(path + "\n" for path, _ in written))
    return EXIT_OK


def _parse_int_list(text: str, flag: str):
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise ValueError(f"{flag} expects a comma-separated integer list")
    try:
        return tuple(int(part) for part in parts)
    except ValueError as exc:
        raise ValueError(f"{flag} expects a comma-separated integer list: {exc}") from exc


def _cmd_family(args) -> int:
    generator_id = _aliases().get(args.gen, args.gen)
    sizes = _parse_int_list(args.sizes, "--sizes")
    spec = scaling.FamilySpec(generator_id, sizes, _given(args))
    params = spec.parameters
    # A member is dim x count; max(dim, count) squared is one simple rule.
    side = max(scaling._FAMILIES[generator_id].shape(sizes[-1], params))
    _check_size(f"family --gen {args.gen} --sizes {args.sizes}", side, side)
    report = scaling.run_family(spec)
    named = "".join(f" {name}={value}" for name, value in params.items())
    payload = {
        "input": f"family:{generator_id} sizes={','.join(map(str, sizes))}{named}",
        **report.to_dict(),
    }
    if args.csv:  # written first, so a failed write leaves no report behind
        matrixio.write_atomic(args.csv, report.csv_text())
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_gabor(args) -> int:
    # The parameters come first, then every grid, before any point set is read:
    # the base rate's first, then the other --refine rates in rising order.
    # The size check of the sample_count x nodes system, whose nodes factor is
    # also a node cap, is made before any node is built or any cell of a node
    # file converted.
    reads, read_points, _ = scaling._POINT_SETS[args.set]
    params = scaling._parameters(f"--set {args.set}", reads, _given(args))
    base = scaling._gabor_grid(params["halfWidth"], params["samplesPerUnit"])
    refine = _parse_int_list(args.refine, "--refine") if args.refine else ()
    rates = [base.samples_per_unit, *sorted(set(refine) - {base.samples_per_unit})]
    grids = [base, *(scaling._gabor_grid(params["halfWidth"], s) for s in rates[1:])]
    sample_count = max(grid.sample_count for grid in grids)
    points = read_points(params, lambda n: _check_size(
        f"gabor --set {args.set}", max(sample_count, n), n))
    # The bounds and the defect read the real twin where the nodes pair up.
    systems = scaling._sampled(points, grids)
    system = next(systems)
    lower, upper = diagnostics.riesz_bounds(system)
    named = "".join(f" {name}={value}" for name, value in params.items())
    payload = {
        "input": f"gabor:{args.set}{named}",
        "nodes": len(points),
        "gridSize": base.sample_count,
        "bounds": {"rieszLower": finite_or_none(lower), "besselUpper": finite_or_none(upper)},
        "defect": diagnostics.completeness_defect(system),
    }
    if args.refine:
        payload["refinement"] = scaling._refinement_report(rates, chain([system], systems)).to_dict()
    if args.dump_matrix:
        # Where the nodes do not pair up, `system` is the complex system itself.
        dump = system if np.iscomplexobj(system.columns) else generators.gaussian_gabor(points, base)
        matrixio.write_matrix(args.dump_matrix, dump)
        payload["matrixPath"] = args.dump_matrix
    _emit(payload, args.json)
    return EXIT_OK


def _add_parameter(cmd: argparse.ArgumentParser, flag: str, name: str, **shown) -> None:
    """The flag of parameter `name`, stored under that name and typed by its
    entry in `scaling._PARAMETER_DEFAULTS`; left out, it is absent from the
    namespace.  Its metavar is the one argparse derives from the flag unless
    `shown` names one, as it may name a help text."""
    shown.setdefault("metavar", flag.lstrip("-").upper().replace("-", "_"))
    kind = type(scaling._PARAMETER_DEFAULTS[name])
    cmd.add_argument(flag, type=kind, default=argparse.SUPPRESS, dest=name, **shown)


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
    cmd.add_argument("--set", required=True, choices=tuple(scaling._POINT_SETS))
    for flag, name in (("--max-index", "maxIndex"), ("--nmax", "nmax"), ("--a", "a"), ("--b", "b")):
        _add_parameter(cmd, flag, name)
    _add_parameter(cmd, "--nodes", "nodes", metavar="PATH", help="point-set CSV for --set file")
    _add_parameter(cmd, "--half-width", "halfWidth")
    _add_parameter(cmd, "--samples", "samplesPerUnit")
    cmd.add_argument("--refine", metavar="RATES", help="extra sampling rates, e.g. 12,32")
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
        _refuse_shared_paths(args)
        return args.func(args)
    except (
        IllConditionedError,
        CriteriaDisagreementError,
        FitDomainError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # MatrixParseError, DimensionError, ...
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
