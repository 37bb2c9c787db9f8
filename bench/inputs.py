"""Seeded inputs for the benchmark workloads.

Run as a script this is the set-up step that the benchmark times: a fresh
interpreter imports rieszlab, builds one workload's inputs with the library's
generators and writers, and writes them beside a manifest of the commands to
run and what each command must produce:

    python3 bench/inputs.py --workload matrix_files --seed 3 --out DIR

Sizes and the command mix are fixed per workload.  The seed changes only the
random values, the seeded point sets and the command order, so every seed
asks for the same amount of work.  Paths in the manifest start with "{dir}",
which the runner replaces by the input directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os

from common import import_rieszlab, pin_environment

WORKLOADS = ("matrix_files", "family_sweep", "gabor_sets")
MANIFEST = "manifest.json"

RIESZ_BASIS = "RieszBasis"
INCOMPLETE = "RieszSequenceIncomplete"
DEPENDENT = "LinearlyDependent"


def _analysis(verdict, defect, lower=None, upper=None, lower_exactly_zero=False):
    return {
        "verdict": verdict,
        "defect": defect,
        "A": lower,
        "B": upper,
        "lowerExactlyZero": lower_exactly_zero,
    }


def _young_general_closed_form(subspace_dim, complement_dim):
    """Bounds of young_general(d, d, c): Gram = I + one all-ones block per residue class."""
    largest_class = max(len(range(r, subspace_dim, complement_dim)) for r in range(complement_dim))
    lower = 1.0 if largest_class >= 2 else 2.0
    return lower, 1.0 + largest_class


def _matrix_files(seed, out, tiny, rng):
    import numpy as np

    rl = import_rieszlab()
    from rieszlab import generators, matrixio

    def permuted(seq):
        return rl.VectorSequence.from_columns(seq.columns[:, rng.permutation(seq.count)])

    def duplicated(columns):
        cols = columns.copy()
        i, j = rng.choice(cols.shape[1], size=2, replace=False)
        cols[:, j] = cols[:, i]
        return rl.VectorSequence.from_columns(cols)

    def wide(dim, count, tag):
        base = generators.random_riesz(dim, seed=(seed, dim, tag)).columns
        extra = generators.random_riesz(dim, seed=(seed, dim, tag + 1)).columns[:, : count - dim]
        return rl.VectorSequence.from_columns(np.hstack([base, extra]))

    # The size ladder keeps the latency distribution free of wide gaps near
    # its middle: with 31 commands the median is the middle sample of
    # analyze:riesz_56, which sits alone between the commands near 16 ms and
    # those near 27 ms, so the median does not jump between distant commands.
    riesz_sizes = (8, 12) if tiny else (16, 24, 32, 48, 56, 64, 80, 96, 128, 192, 256)
    young_sizes = (5,) if tiny else (15, 63)
    young_general = ((6, 2),) if tiny else ((40, 3), (96, 4))
    weighted_sizes = (6,) if tiny else (24, 64, 128)
    dependent_square = 6 if tiny else 48
    dependent_tall = (10, 8) if tiny else (160, 120)
    wide_shapes = ((4, 6),) if tiny else ((24, 40), (64, 128))

    systems = []
    for n in riesz_sizes:
        systems.append((f"riesz_{n}", generators.random_riesz(n, seed=(seed, n)),
                        _analysis(RIESZ_BASIS, 0)))
    # A second basis at the top size, also dualised: the two top-size duals
    # give the tail rank (the eleventh slowest sample) a block of twice the
    # cycle count to fall in, so it reads near that block's median, not at
    # its edge.
    top = riesz_sizes[-1]
    systems.append((f"riesz_{top}b", generators.random_riesz(top, seed=(seed, top, 4)),
                    _analysis(RIESZ_BASIS, 0)))
    for n_vectors in young_sizes:
        systems.append((f"young_{n_vectors}", permuted(generators.young_example(n_vectors).primal),
                        _analysis(INCOMPLETE, 1, 1.0, n_vectors + 1.0)))
    for subspace_dim, complement_dim in young_general:
        pair = generators.young_general(subspace_dim, subspace_dim, complement_dim)
        lower, upper = _young_general_closed_form(subspace_dim, complement_dim)
        systems.append((f"young_general_{subspace_dim}_{complement_dim}", permuted(pair.primal),
                        _analysis(INCOMPLETE, complement_dim, lower, upper)))
    for n in weighted_sizes:
        systems.append((f"weighted_{n}", permuted(generators.weighted_pair(n).primal),
                        _analysis(RIESZ_BASIS, 0, 1.0 / n**2, 1.0)))
    n = dependent_square
    systems.append((f"dependent_{n}",
                    duplicated(generators.random_riesz(n, seed=(seed, n, 1)).columns),
                    _analysis(DEPENDENT, 1)))
    dim, count = dependent_tall
    systems.append((f"dependent_{dim}x{count}",
                    duplicated(generators.random_riesz(dim, seed=(seed, dim, 1)).columns[:, :count]),
                    _analysis(DEPENDENT, dim - count + 1)))
    for dim, count in wide_shapes:
        systems.append((f"wide_{dim}x{count}", wide(dim, count, 2),
                        _analysis(DEPENDENT, 0, 0.0, None, lower_exactly_zero=True)))

    # About three analyze commands per dual; two duals must exit 4.
    dual_names = (
        {"riesz_12", "riesz_12b", "young_5", "dependent_6", "wide_4x6"}
        if tiny
        else {"riesz_32", "riesz_256", "riesz_256b", "young_63", "young_general_40_3",
              "weighted_128", "dependent_48", "wide_24x40"}
    )
    commands = []
    for name, seq, expect in systems:
        matrixio.write_matrix(os.path.join(out, f"{name}.csv"), seq)
        source = f"{{dir}}/{name}.csv"
        check = dict(expect, dim=seq.dim, count=seq.count, input=source)
        commands.append({
            "id": f"analyze:{name}",
            "argv": ["analyze", source],
            "outputs": [],
            "check": dict(check, type="analyze", exit=0),
        })
        if name in dual_names:
            dual_csv, dual_json = f"{{dir}}/{name}_dual.csv", f"{{dir}}/{name}_dual.json"
            commands.append({
                "id": f"dual:{name}",
                "argv": ["dual", source, "-o", dual_csv, "--json", dual_json],
                "outputs": [dual_csv, dual_json],
                "check": dict(check, type="dual", exit=4 if expect["verdict"] == DEPENDENT else 0,
                              out=dual_csv, json=dual_json),
            })
    return commands


def _family_sweep(seed, out, tiny, rng):
    import_rieszlab()
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]
    if tiny:
        studies = [
            ("rieszSeeded", "8,12,16", {"seed": seeds[0]}),
            ("youngExample", "4,8,16", {}),
            ("weightedPair", "4,8,16", {}),
            ("alternatingWeightedPair", "5,9,17", {}),
            ("youngGeneral", "5,9,17", {"complementDim": 2}),
            ("gaborPunctured", "1,2,3", {"halfWidth": 6.0, "samplesPerUnit": 16}),
        ]
    else:
        # Three small studies, five mid-sized ones and three rieszSeeded ones
        # (top sizes 384..512, which dominate the cycle): the median falls in
        # the middle of the mid-sized block and the tail inside one rieszSeeded
        # study's samples, not on a gap between commands.
        studies = [
            ("youngGeneral", "9,18,36,72", {"complementDim": 3}),
            ("youngExample", "12,24,48,96", {}),
            ("weightedPair", "8,16,32,64,128", {}),
            ("weightedPair", "16,32,64,128,256", {}),
            ("alternatingWeightedPair", "17,33,65,129,257", {}),
            ("youngExample", "8,16,32,64,128,256", {}),
            ("youngGeneral", "20,40,80,160,320", {"complementDim": 2}),
            ("gaborPunctured", "1,2,3", {"halfWidth": 7.0, "samplesPerUnit": 24}),
            ("rieszSeeded", "48,96,192,384", {"seed": seeds[0]}),
            ("rieszSeeded", "56,112,224,448", {"seed": seeds[1]}),
            ("rieszSeeded", "64,128,256,512", {"seed": seeds[2]}),
        ]
    commands = []
    for index, (generator, sizes, params) in enumerate(studies):
        csv_path = f"{{dir}}/family_{index}.csv"
        argv = ["family", "--gen", generator, "--sizes", sizes, "--csv", csv_path]
        if "seed" in params:
            argv += ["--seed", str(params["seed"])]
        if "complementDim" in params:
            argv += ["--complement-dim", str(params["complementDim"])]
        if "halfWidth" in params:
            argv += ["--half-width", repr(params["halfWidth"]),
                     "--samples", str(params["samplesPerUnit"])]
        check = {
            "type": "family",
            "exit": 0,
            "generator": generator,
            "sizes": [int(s) for s in sizes.split(",")],
            "complementDim": params.get("complementDim", 1),
            "csv": csv_path,
        }
        if generator == "gaborPunctured":
            check["nodesPerSize"] = [_lattice_nodes(1.0, 1.0, m, puncture=(1.0, 0.0))
                                     for m in check["sizes"]]
        commands.append({"id": f"family:{index}:{generator}", "argv": argv,
                         "outputs": [csv_path], "check": check})
    return commands


def _lattice_nodes(a, b, max_index, puncture=None):
    span = range(-max_index, max_index + 1)
    nodes = [(j * a, k * b) for j in span for k in span]
    return [list(node) for node in nodes if node != puncture]


def _als_nodes(n_max):
    nodes = [[-1.0, 0.0], [1.0, 0.0]]
    for n in range(1, n_max + 1):
        r = math.sqrt(2.0 * n)
        nodes += [[0.0, r], [0.0, -r], [r, 0.0], [-r, 0.0]]
    return nodes


def _jittered_lattice(rng, a, b, max_index, jitter):
    return [[t + float(rng.uniform(-jitter, jitter)), m + float(rng.uniform(-jitter, jitter))]
            for t, m in _lattice_nodes(a, b, max_index)]


def _separated_points(rng, count, radius, separation):
    nodes = []
    while len(nodes) < count:
        t, m = (float(v) for v in rng.uniform(-radius, radius, size=2))
        if all(math.hypot(t - u, m - v) >= separation for u, v in nodes):
            nodes.append([t, m])
    return nodes


def _gabor_sets(seed, out, tiny, rng):
    import_rieszlab()
    from rieszlab import generators, matrixio

    # Six small sets, seven mid-sized ones and six with 80 or 81 nodes, so the
    # median falls in the middle of the mid-sized block.
    # (set, parameters, half-width, samples, refine rates).  Every
    # |tau| stays 3 inside the window, every rate exceeds 2*max|mu| + 4 so the
    # Riemann sums converge, and 2*X*s exceeds the node count (tall matrix).
    if tiny:
        sets = [
            ("lattice", {"a": 1.0, "b": 1.0, "max_index": 1}, 4.0, 8, "12"),
            ("punctured", {"max_index": 1}, 4.0, 8, "12"),
            ("als", {"nmax": 1}, 5.0, 8, "12"),
            ("file", {"points": _jittered_lattice(rng, 1.5, 1.5, 1, 0.1)}, 5.0, 8, "12"),
        ]
    else:
        sets = [
            ("lattice", {"a": 1.0, "b": 1.0, "max_index": 2}, 6.0, 32, "24,40"),
            ("lattice", {"a": 1.0, "b": 1.0, "max_index": 3}, 7.0, 32, "24,40"),
            ("lattice", {"a": 1.25, "b": 1.0, "max_index": 3}, 7.0, 32, "24,40"),
            ("lattice", {"a": 1.25, "b": 1.25, "max_index": 3}, 7.0, 32, "24,40"),
            ("lattice", {"a": 1.0, "b": 1.5, "max_index": 3}, 6.0, 32, "24,40"),
            ("lattice", {"a": 1.5, "b": 1.5, "max_index": 3}, 8.0, 32, "24,40"),
            ("lattice", {"a": 2.0, "b": 1.5, "max_index": 4}, 11.0, 32, "24,40"),
            ("lattice", {"a": 1.5, "b": 2.0, "max_index": 4}, 9.0, 32, "28,40"),
            ("lattice", {"a": 1.0, "b": 1.0, "max_index": 4}, 7.0, 32, "24,40"),
            ("lattice", {"a": 1.25, "b": 1.25, "max_index": 4}, 8.0, 32, "24,40"),
            ("punctured", {"max_index": 4}, 7.0, 32, "24,40"),
            ("punctured", {"max_index": 2}, 6.0, 32, "24,40"),
            ("punctured", {"max_index": 3}, 6.0, 32, "24,40"),
            ("als", {"nmax": 2}, 6.0, 32, "24"),
            ("als", {"nmax": 4}, 6.0, 32, "24,40"),
            ("file", {"points": _jittered_lattice(rng, 1.5, 1.5, 2, 0.15)}, 7.0, 32, "24,40"),
            ("file", {"points": _jittered_lattice(rng, 1.25, 1.25, 3, 0.1)}, 7.0, 32, "24,40"),
            ("file", {"points": _jittered_lattice(rng, 1.5, 1.5, 4, 0.1)}, 10.0, 32, "24,40"),
            ("file", {"points": _separated_points(rng, 16, 3.0, 1.0)}, 6.0, 32, "24,40"),
        ]
    commands = []
    for index, (kind, params, half_width, samples, refine) in enumerate(sets):
        argv = ["gabor", "--set", kind]
        supercritical = False
        if kind == "lattice":
            a, b, m = params["a"], params["b"], params["max_index"]
            argv += ["--a", repr(a), "--b", repr(b), "--max-index", str(m)]
            nodes = _lattice_nodes(a, b, m)
            supercritical = a * b > 1.0
        elif kind == "punctured":
            argv += ["--max-index", str(params["max_index"])]
            nodes = _lattice_nodes(1.0, 1.0, params["max_index"], puncture=(1.0, 0.0))
        elif kind == "als":
            argv += ["--nmax", str(params["nmax"])]
            nodes = _als_nodes(params["nmax"])
        else:
            nodes = params["points"]
            path = f"{{dir}}/points_{index}.csv"
            points = generators.PointSet2D(tuple(map(tuple, nodes)))
            matrixio.write_point_set(path.replace("{dir}", out), points)
            argv += ["--nodes", path]
        argv += ["--half-width", repr(half_width), "--samples", str(samples), "--refine", refine]
        rates = sorted({samples, *(int(r) for r in refine.split(","))})
        commands.append({
            "id": f"gabor:{index}:{kind}",
            "argv": argv,
            "outputs": [],
            "check": {
                "type": "gabor",
                "exit": 0,
                "nodes": nodes,
                "gridSize": int(round(2 * half_width * samples)),
                "rates": rates,
                "supercritical": supercritical,
            },
        })
    return commands


WORKLOAD_INPUTS = {
    "matrix_files": _matrix_files,
    "family_sweep": _family_sweep,
    "gabor_sets": _gabor_sets,
}


def build(workload: str, seed: int, out: str, tiny: bool = False) -> dict:
    """Write one workload's input files and manifest into `out`; return the manifest."""
    import numpy as np

    rng = np.random.default_rng((seed, WORKLOADS.index(workload)))
    os.makedirs(out, exist_ok=True)
    commands = WORKLOAD_INPUTS[workload](seed, out, tiny, rng)
    commands = [commands[i] for i in rng.permutation(len(commands))]
    manifest = {"workload": workload, "seed": seed, "tiny": tiny, "commands": commands}
    with open(os.path.join(out, MANIFEST), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    return manifest


def main() -> int:
    pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    build(args.workload, args.seed, args.out, args.tiny)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
