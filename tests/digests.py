"""SHA-256 digests of the output of every benchmark manifest command.

The seed-7 and seed-8 manifests of the three benchmark workloads, full and
`--tiny` (170 commands), are built with `bench/inputs.build` and run through
`rieszlab.cli.main` in one child process.  A command's digest covers its exit
code, stdout, stderr and every file it writes, with the input directory
replaced by "{dir}".  `tests/test_digests.py` compares them with the committed
`tests/digests.json`:

    python tests/digests.py           # print the commands whose digest moved
    python tests/digests.py --write   # also rewrite tests/digests.json

Seeded output is byte-identical per BLAS kernel and per numpy SIMD target,
not across them: with another OpenBLAS core type most digests move, and
without numpy's AVX-512 loops 50 of them do on an AVX-512 machine.  So the child pins one BLAS
thread and OpenBLAS's Haswell kernels (AVX2 and FMA, which every current
x86_64 CI runner has), and turns off numpy's AVX-512 loops, which a runner
without AVX-512 cannot take.  A change that moves a digest names each moved
command in CHANGES.md and commits the rewritten file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
ROOT = TESTS_DIR.parent
DIGESTS = TESTS_DIR / "digests.json"

SEEDS = (7, 8)
WORKLOADS = ("matrix_files", "family_sweep", "gabor_sets")

#: The child's environment beside the caller's, set before numpy loads.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}


def _files(directory: str) -> dict:
    """Each file's (modification time, size), by path: a command wrote the
    files whose entry it added or changed."""
    stats = {entry.path: entry.stat() for entry in os.scandir(directory) if entry.is_file()}
    return {path: (stat.st_mtime_ns, stat.st_size) for path, stat in stats.items()}


def _run(commands, directory: str) -> dict:
    """Each command's digest, by id, run in manifest order through cli.main."""
    from rieszlab import cli

    def portable(data: bytes) -> bytes:
        return data.replace(directory.encode(), b"{dir}")

    digests = {}
    for command in commands:
        argv = [arg.replace("{dir}", directory) for arg in command["argv"]]
        before = _files(directory)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digest = hashlib.sha256(portable(repr((code, out.getvalue(), err.getvalue())).encode()))
        for path, stamp in sorted(_files(directory).items()):
            if before.get(path) != stamp:
                digest.update(os.path.basename(path).encode() + b"\0")
                digest.update(portable(Path(path).read_bytes()))
        digests[command["id"]] = digest.hexdigest()
    return digests


def _child(workdir: str) -> dict:
    """Build and run every manifest under `workdir`; the digests by key."""
    sys.path.insert(0, str(ROOT / "bench"))
    import inputs

    digests = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            for tiny in (False, True):
                name = f"{workload}/{seed}/{'tiny' if tiny else 'full'}"
                directory = os.path.join(workdir, name.replace("/", "-"))
                commands = inputs.build(workload, seed, directory, tiny)["commands"]
                for command_id, digest in _run(commands, directory).items():
                    digests[f"{name}/{command_id}"] = digest
    return digests


def compute(workdir) -> dict:
    """The digests of every manifest command, run in a pinned child process
    whose inputs and outputs live under `workdir`."""
    env = dict(os.environ, **PINNED_ENV)
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(workdir)],
        env=env, capture_output=True, text=True, check=False,
    )
    if result.returncode != 0:
        raise RuntimeError(f"digest run failed ({result.returncode}):\n{result.stderr}")
    return json.loads(result.stdout)


def load() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def moved(committed: dict, computed: dict) -> list:
    """Keys whose digest differs, or that only one side has, sorted."""
    return sorted(key for key in committed.keys() | computed.keys()
                  if committed.get(key) != computed.get(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite tests/digests.json")
    parser.add_argument("--child", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        json.dump(_child(args.child), sys.stdout, sort_keys=True)
        return 0
    with tempfile.TemporaryDirectory() as workdir:
        computed = compute(workdir)
    changed = moved(load() if DIGESTS.exists() else {}, computed)
    for key in changed:
        print(key)
    if args.write:
        DIGESTS.write_text(json.dumps(computed, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if changed and not args.write else 0


if __name__ == "__main__":
    raise SystemExit(main())
