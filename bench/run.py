"""rieszlab benchmark: seeded CLI workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload matrix_files --seed 1 --seconds 30 --trace 0

Workloads (inputs are built by bench/inputs.py from --seed):

  matrix_files  analyze, and dual with -o/--json, about three analyze per dual,
                over matrix CSVs: random Riesz bases n = 16..256, Young and
                youngGeneral primals, weighted diagonals, duplicated-column
                systems (dual exits 4) and wide systems.  The only workload
                that parses and formats matrix CSV.
  family_sweep  family studies with --csv on the default thread pool:
                rieszSeeded up to sizes 384..512 plus the closed-form families
                and gaborPunctured.  LAPACK-bound, no matrix CSV.
  gabor_sets    gabor --refine over lattices from critical density upwards,
                punctured lattices, ALS sets and --set file point sets; every
                sampled matrix is tall.  gaussian_gabor and one tall SVD per
                rate; no Gram, no dual, no matrix CSV.

One client calls rieszlab.cli.main in process, closed loop: the next command
starts when the previous one returns.  A cycle runs every command of the
workload once.  A run executes one untimed warm-up cycle, then a fixed number
of timed cycles per --seconds, sized so that a run measures about --seconds on
a 2-core x86_64 machine with BLAS pinned to one thread.  Every run of a
workload therefore times the same commands, and the tail percentile always
reads the same rank.
Every command's exit code, stdout and files are checked by bench/oracle.py,
and a repeated command must reproduce its first output byte for byte.

Every time is scaled to a reference speed by a fixed pure-Python probe timed
before each command and around each set-up (see PROBE_LOOPS), because a shared
machine's speed drifts by up to 50% within a run; the unscaled figures are
printed above the result under "raw".

--trace 0 prints the end-to-end metrics: ops_per_s (commands per second of
command time over the timed cycles), latency_p50_ms, latency_tail_ms (the
highest percentile with at least ten samples beyond it; which one is printed
above the result), success_rate (1 - failed/attempted; error_rate itself is
printed above the result), setup_s (median of five fresh set-up processes:
interpreter start, import rieszlab, building the inputs), peak_rss_mb and
lapack_calls_per_op (svd + eigvalsh + solve + lstsq per command, from one
traced cycle after the timed ones).

--trace 1 alternates untraced and traced cycles after the warm-up and prints
the per-layer metrics of bench/tracing.py, per command, plus the tracing
overhead: untraced minus traced ops_per_s.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Every process pins OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1
before numpy loads and leaves RIESZLAB_THREADS unset.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, CheckoutError, PINNED_ENV, UNSET_ENV, import_rieszlab, pin_environment

#: Timed cycles per 30 seconds of --seconds.  On the reference machine a
#: 30-second run then measures 25 to 40 s of wall time, depending on how busy
#: the machine is, and the tail rank (the eleventh slowest sample) falls inside
#: the block of one command's samples rather than on the edge between two
#: commands (on matrix_files, among the 16 samples of the two n=256 duals).
CYCLES_PER_30_S = {"matrix_files": 8, "family_sweep": 7, "gabor_sets": 75}
MIN_CYCLES = 2
#: Timed cycles stop early past this multiple of --seconds, so that a much
#: slower build still finishes inside the run limit.
DEADLINE_FACTOR = 4.0
#: The reference probe: a fixed pure-Python loop, timed PROBE_REPEATS times
#: (median) before every command and around every set-up.  A shared machine's
#: speed drifts by up to 50% over seconds to minutes, for Python and LAPACK work
#: alike; measured side by side, an analyze at n=64 or n=192 and this probe
#: keep their ratio within a few per cent while both swing by 20-50%.  Every
#: time metric is therefore scaled to the reference speed: the raw time times
#: PROBE_REFERENCE_S over the local probe time, the median of the probes taken
#: from PROBE_SPAN_S before the command to PROBE_SPAN_S after it.  A single
#: probe samples an instant, a command integrates over its run, so the median
#: over a span follows the drift without the probe's own jitter.  The probe
#: calls nothing in rieszlab.
PROBE_LOOPS = 4000
PROBE_REPEATS = 3
PROBE_SPAN_S = 1.0
#: About the probe's median time on a 2-core x86_64 machine, in seconds; it
#: only sets the scale of the reported times, which then read close to the raw
#: ones on that machine.
PROBE_REFERENCE_S = 0.0003
SETUP_PROBES = 5
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
TAIL_SAMPLES_BEYOND = 10
WORK_ROOT = ROOT / ".bench_work"
#: LAPACK calls at this commit; printed beside the counts measured in a traced run.
BASELINE_COUNTS = {
    "classify": {"svd": 7, "eigvalsh": 4, "solve": 1},
    "analyze": {"svd": 11, "eigvalsh": 6, "solve": 2},
}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lapack_calls_per_op": "calls/op",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rieszlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(CYCLES_PER_30_S))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and two timed cycles, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _tree_digest(directory) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def probe() -> float:
    """Median time of PROBE_REPEATS runs of the fixed reference loop, in seconds."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_setups(args, workdir):
    """Build the inputs SETUP_REPEATS times, each in a fresh interpreter.

    Returns the wall time of each set-up scaled to the reference speed by the
    probes run just before and after it, the raw wall times, the first input
    directory, and whether every set-up wrote byte-identical inputs.
    """
    seconds, raw, digests = [], [], []
    for repeat in range(SETUP_REPEATS):
        out = os.path.join(workdir, f"inputs{repeat}")
        command = [sys.executable, str(BENCH_DIR / "inputs.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--out", out]
        if args.tiny:
            command.append("--tiny")
        probes = [probe() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        raw.append(time.perf_counter() - start)
        probes += [probe() for _ in range(SETUP_PROBES)]
        seconds.append(raw[-1] * PROBE_REFERENCE_S / statistics.median(probes))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed with exit {proc.returncode}: {proc.stderr[-2000:]}")
        digests.append(_tree_digest(out))
        if repeat:
            shutil.rmtree(out)
    return seconds, raw, os.path.join(workdir, "inputs0"), len(set(digests)) == 1


def load_commands(input_dir):
    from inputs import MANIFEST

    with open(os.path.join(input_dir, MANIFEST), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)

    def resolve(value):
        if isinstance(value, str):
            return value.replace("{dir}", input_dir)
        if isinstance(value, list):
            return [resolve(v) for v in value]
        if isinstance(value, dict):
            return {k: resolve(v) for k, v in value.items()}
        return value

    return resolve(manifest["commands"])


class Runner:
    """Runs the command cycle against rieszlab.cli.main and checks every result."""

    def __init__(self, commands):
        self.commands = commands
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_cycle(self, tracer=None):
        """Run every command once; return (start, latency, probe) in seconds, one per command."""
        cli = sys.modules["rieszlab.cli"]
        samples = []
        for command in self.commands:
            for path in command["outputs"]:
                if os.path.exists(path):
                    os.unlink(path)
            if tracer is not None:
                tracer.command = self.attempted
            local_probe = probe()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    rc = cli.main(command["argv"])
                except Exception as exc:  # recorded as a failed command
                    rc = f"uncaught {type(exc).__name__}: {exc}"
                samples.append((start, time.perf_counter() - start, local_probe))
            self.attempted += 1
            problems = self._verify(command, rc, out.getvalue(), err.getvalue())
            if problems:
                self.failed += 1
                self.failures.extend(f"{command['id']}: {p}" for p in problems)
        return samples

    def _verify(self, command, rc, stdout, stderr):
        from oracle import check

        digest = hashlib.sha256(repr((rc, stdout, stderr)).encode())
        for path in command["outputs"]:
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        digest = digest.hexdigest()
        reference = self.reference.get(command["id"])
        if reference is None:
            problems = check(command["check"], rc, stdout, stderr)
            if not problems:
                self.reference[command["id"]] = digest
            return problems
        if digest != reference:
            return ["output differs from the first run of the same command"]
        return []


def traced_cycle(runner, tracer):
    tracer.install()
    try:
        return runner.run_cycle(tracer)
    finally:
        tracer.uninstall()


def library_counts(workdir):
    """LAPACK calls of one classify and one CLI analyze on a 12x12 Riesz basis."""
    import rieszlab
    from rieszlab import cli, generators, matrixio
    from tracing import Tracer

    system = generators.random_riesz(12, seed=0)
    path = os.path.join(workdir, "counter_check.csv")
    matrixio.write_matrix(path, system)
    counts = {}
    for name, call in (("classify", lambda: rieszlab.classify(system)),
                       ("analyze", lambda: cli.main(["analyze", path]))):
        tracer = Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                call()
        finally:
            tracer.uninstall()
        measured = tracer.kernel_counts()
        counts[name] = {k: measured[k] for k in BASELINE_COUNTS[name]}
    counts["matches_baseline"] = counts["classify"] == BASELINE_COUNTS["classify"] and (
        counts["analyze"] == BASELINE_COUNTS["analyze"]
    )
    return counts


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {name: os.environ.get(name) for name in (*PINNED_ENV, *UNSET_ENV)}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "env": env,
    }


def tail_latency(latencies):
    """Value with TAIL_SAMPLES_BEYOND samples above it, its percentile and the sample count."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_SAMPLES_BEYOND - 1)
    beyond = len(ordered) - index - 1
    return ordered[index], 100.0 * (len(ordered) - beyond) / len(ordered), beyond


def timed_cycles(args, runner, tracer=None):
    """Warm up, then run the timed cycles; with a tracer every second cycle is traced.

    Returns the untraced and the traced cycles, each a list of run_cycle results.
    """
    runner.run_cycle()
    cycles = MIN_CYCLES if args.tiny else max(
        MIN_CYCLES, round(CYCLES_PER_30_S[args.workload] * args.seconds / 30.0)
    )
    deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds
    untraced, traced = [], []
    for cycle in range(cycles):
        if cycle >= MIN_CYCLES and time.perf_counter() > deadline:
            break
        if tracer is not None and cycle % 2:
            traced.append(traced_cycle(runner, tracer))
        else:
            untraced.append(runner.run_cycle())
    return untraced, traced


def scaled_latencies(cycles):
    """Latencies of the given cycles, in run order, scaled to the reference speed."""
    samples = [sample for cycle in cycles for sample in cycle]
    starts = [start for start, _, _ in samples]
    probes = [p for _, _, p in samples]
    scaled = []
    for k, (start, latency, _) in enumerate(samples):
        first = bisect.bisect_left(starts, start - PROBE_SPAN_S, hi=k)
        last = bisect.bisect_right(starts, start + latency + PROBE_SPAN_S, lo=k)
        scaled.append(latency * PROBE_REFERENCE_S / statistics.median(probes[first:last]))
    return scaled


def ops_per_s(latencies):
    """Commands completed per second of command time."""
    return len(latencies) / sum(latencies)


def measure(args, workdir):
    import rieszlab.cli  # noqa: F401  (the package does not import its CLI)
    from tracing import PER_LAYER_UNITS, Tracer, counter_self_check, layer_metrics

    setup_seconds, setup_raw, input_dir, inputs_identical = timed_setups(args, workdir)
    runner = Runner(load_commands(input_dir))
    self_check = counter_self_check()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "commands_per_cycle": len(runner.commands),
        "setup_s_samples": setup_seconds,
        "setup_s_raw_samples": setup_raw,
        "inputs_identical_across_setups": inputs_identical,
        "counter_self_check": self_check,
    }
    start = time.perf_counter()
    if args.trace == 0:
        cycles, _ = timed_cycles(args, runner)
        info["measured_s"] = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer = Tracer()
        traced_cycle(runner, tracer)
        lapack_calls = sum(tracer.kernel_counts().values())
        samples = scaled_latencies(cycles)
        raw = [latency for cycle in cycles for _, latency, _ in cycle]
        tail, percentile, beyond = tail_latency(samples)
        per_cycle = len(runner.commands)
        info["command_p50_ms"] = {
            command["id"]: 1e3 * statistics.median(samples[i::per_cycle])
            for i, command in enumerate(runner.commands)
        }
        info.update(timed_cycles=len(cycles), samples=len(samples),
                    tail={"percentile": percentile, "samples_beyond": beyond},
                    error_rate=runner.failed / runner.attempted,
                    probe_p50_ms=1e3 * statistics.median(p for cycle in cycles for _, _, p in cycle),
                    raw={"ops_per_s": ops_per_s(raw),
                         "latency_p50_ms": 1e3 * statistics.median(raw),
                         "latency_tail_ms": 1e3 * tail_latency(raw)[0]})
        metrics = {
            "ops_per_s": ops_per_s(samples),
            "latency_p50_ms": 1e3 * statistics.median(samples),
            "latency_tail_ms": 1e3 * tail,
            "success_rate": 1.0 - runner.failed / runner.attempted,
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": peak_rss_mb,
            "lapack_calls_per_op": lapack_calls / len(runner.commands),
        }
        units = END_TO_END_UNITS
    else:
        tracer = Tracer()
        untraced, traced = timed_cycles(args, runner, tracer)
        info["measured_s"] = time.perf_counter() - start
        info["library_counts"] = library_counts(workdir)
        info.update(untraced_cycles=len(untraced), traced_cycles=len(traced),
                    error_rate=runner.failed / runner.attempted)
        metrics = layer_metrics(tracer.spans, sum(len(c) for c in traced))
        metrics["trace.overhead_ops_per_s"] = (ops_per_s(scaled_latencies(untraced))
                                               - ops_per_s(scaled_latencies(traced)))
        units = PER_LAYER_UNITS
    info["failures"] = runner.failures[:20]
    correct = runner.failed == 0 and self_check["ok"] and inputs_identical
    return correct, runner, info, {name: {"value": metrics[name], "unit": units[name]}
                                   for name in metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    try:
        import_rieszlab()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workdir = str(WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        correct, runner, info, metrics = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(json.dumps({"info": info}, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
