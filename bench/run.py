"""ballspec benchmark: user-level CLI workloads, end to end and per layer.

Run from the repository root::

    python3 bench/run.py --workload closed_form --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop: a single caller runs the
workload's command list (see ``workloads.py``) in sequence through
``ballspec.cli.main(argv)``, in-process with stdout captured, pass after
pass until the next pass would overrun ``--seconds``.  Every output is then
checked against references built by ``checker.py``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of importing ballspec plus
  one warm-up BLAS call (the cost every CLI process pays once);
* ``wall_ref_s`` and ``cpu_ref_s``: time for the whole command list (wall,
  and user+sys CPU of the process), summed over commands of each command's
  median across passes;
* ``peak_rss_mb``: peak resident memory of this process, read before any
  reference data is built.

The three times are in seconds at a fixed reference speed of the host, not
raw seconds.  The shared host this benchmark was written on changes speed
by up to 1.7x in phases of a few seconds to a minute, wall and CPU time
alike, and raw times of one workload spread by 0.13-0.4 (quartile distance
over median) between runs of the same code: more than any bound a
regression check can use.  So the host's speed is measured alongside the
program with ``probe_kernel``, a few milliseconds of fixed Sturm-count and
``eigh`` work.  During the passes a timer runs it every ``PROBE_PERIOD``
seconds, between two bytecodes of the program (``SpeedProbe``); its time is
taken out of the command's, and the rest of the command's time is scaled by
the kernel's speed during that command over ``PROBE_REF_RATE``
(``reference_seconds``).  A program that does less work still takes less
time; a host that slows down slows the kernel with it.  Time the timer was
held off inside one long native call is kept as measured: the large LAPACK
calls of ``oracle_verify`` barely slow when the interpreter does, and
scaling them added noise.  Each set-up interpreter times the kernel right
after its imports, and its set-up time is scaled the same way.

On a shared 2-vCPU VM, ten runs per workload spread in reference seconds by
0.04 (``closed_form``), 0.10 (``oracle_verify``), 0.03 (``bounds_large_n``)
and 0.05 (``eigenfunction_synth``) against 0.17, 0.13, 0.16 and 0.33 in raw
seconds, and ``setup_s`` by 0.04-0.10.  ``oracle_verify`` tracks least well
because its large ``eigh`` calls hold the timer off.  The raw seconds are
printed and go to the run record.

``--trace 1`` runs each command untraced and then traced, pass after pass,
and reports the per-layer metrics of the traced runs (``tracing.py``):
counts are per pass, times are medians over passes, and
``trace.overhead_frac`` is the traced over the untraced raw wall time minus one.

The failed fraction is ``failed / attempted`` of the final JSON line: a
command fails if it exits non-zero, raises, fails its output check, or (in
a traced run) prints other bytes under the tracer than without it.

BLAS runs on one thread.  On a shared 2-core box the dense oracle list took
4.1-5.5 s with two threads and 6.6-7.2 s with one: one thread is slower
but far steadier, and it keeps ``cpu_ref_s`` close to ``wall_ref_s``, so a
change that adds threads shows as the gap between them.

The run record (versions, BLAS, threads, nproc, commit, seed, sample
counts) and the metrics go to ``bench/out/<workload>-seed<seed>-trace<t>.json``;
a traced run also writes its spans to ``bench/out/spans-<workload>.npz``.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SAMPLES = 9
PROBE_PERIOD = 0.05
PROBE_REF_RATE = 250.0  # kernels/s of a quiet reference host; it only sets the scale
PROBE_SHARE = 0.1

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "tridiagonal.count_below.calls": "count",
    "tridiagonal.count_below.busy_s": "s",
    "tridiagonal.sturm_steps": "count",
    "tridiagonal.sturm_per_eigenvalue": "ratio",
    "tridiagonal.eigenvalues_all.busy_s": "s",
    "tridiagonal.eigenvalue_k.calls": "count",
    "tridiagonal.eigenvalue_k.busy_s": "s",
    "tridiagonal.eigenvector.busy_s": "s",
    "krawtchouk.roots.calls": "count",
    "krawtchouk.roots.busy_s": "s",
    "krawtchouk.build.busy_s": "s",
    "krawtchouk.first_root.calls": "count",
    "krawtchouk.first_root.busy_s": "s",
    "krawtchouk.first_root.self_s": "s",
    "hamming.build_graph.calls": "count",
    "hamming.build_graph.busy_s": "s",
    "hamming.vertices": "count",
    "hamming.dense_adjacency.busy_s": "s",
    "hamming.eigh.busy_s": "s",
    "hamming.oracle_spectrum.self_s": "s",
    "hamming.dense_bytes": "bytes",
    "hamming.oracle_residual_ratio": "ratio",
    "hamming.apply_adjacency.calls": "count",
    "hamming.apply_adjacency.busy_s": "s",
    "hamming.edge_lines.busy_s": "s",
    "spectrum.full_spectrum.calls": "count",
    "spectrum.full_spectrum.busy_s": "s",
    "spectrum.full_spectrum.self_s": "s",
    "spectrum.lambda_set.self_s": "s",
    "spectrum.verify_against_oracle.self_s": "s",
    "spectrum.merge_warnings": "count",
    "spectrum.max_radius": "lambda",
    "eigenfunctions.synthesize.calls": "count",
    "eigenfunctions.synthesize.busy_s": "s",
    "eigenfunctions.synthesize.self_s": "s",
    "eigenfunctions.build_basis.busy_s": "s",
    "eigenfunctions.restricted_adjacency.busy_s": "s",
    "bounds.ball_bound.calls": "count",
    "bounds.ball_bound.busy_s": "s",
    "bounds.ball_bound.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import ballspec, ballspec.cli, numpy
numpy.linalg.eigh(numpy.ones((256, 256)))
elapsed = time.perf_counter() - start
if not ballspec.__file__.startswith(sys.argv[1]):
    sys.exit("ballspec was not imported from " + sys.argv[1])
sys.path.insert(0, sys.argv[2])
import run
speeds = []
for _ in range(5):
    t0 = time.perf_counter()
    run.probe_kernel()
    speeds.append(1.0 / (time.perf_counter() - t0))
print(repr(elapsed), repr(sum(speeds) / len(speeds)))
"""


@dataclass
class Pass:
    """One run of the whole command list; the lists hold one entry per command."""

    walls: list[float]
    cpus: list[float]  # process CPU time, user + sys
    outputs: list[tuple[int | str, str]]  # (exit code or exception, stdout)
    merge_warnings: int
    probed: list[list[tuple[float, float]]] = field(default_factory=list)  # SpeedProbe samples

    @property
    def wall(self) -> float:
        return sum(self.walls)


def load_ballspec():
    """Import ballspec from this checkout's ``src``, or exit with status 1."""
    if not (SRC / "ballspec" / "cli.py").is_file():
        sys.exit(f"error: no ballspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ballspec.cli
    import ballspec.spectrum

    if not Path(ballspec.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: ballspec was imported from {ballspec.__file__}, not {SRC}")
    return ballspec


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """Import plus warm-up BLAS time, each in a fresh interpreter, with the
    probe kernel's speed measured right after in the same interpreter."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
        elapsed, rate = map(float, proc.stdout.split())
        times.append((elapsed, rate))
    return times


PROBE_OFF_SQ = [float((k - 1) * (400 - k + 2)) for k in range(2, 401)]
PROBE_SHIFTS = [(-1.0 + 2.0 * i / 59) * 400 for i in range(60)]
PROBE_MATRIX = np.add.outer(np.arange(96.0), np.arange(96.0)) % 7.0


def probe_kernel() -> int:
    """A fixed few milliseconds of work like the program's: Sturm counts, eigh."""
    below = 0
    for x in PROBE_SHIFTS:
        q = -x
        for e2 in PROBE_OFF_SQ:
            q = -x - e2 / q
            if abs(q) < 1e-300:
                q = -1e-300
            if q < 0.0:
                below += 1
    np.linalg.eigh(PROBE_MATRIX)
    return below


class SpeedProbe:
    """Samples the host's speed while the passes run.

    A timer interrupts the caller every ``period`` seconds and runs
    ``probe_kernel``, which does fixed work, so its time measures how fast
    the host runs the program just then.  Each sample is (time since the
    previous sample ended, kernel time).  ``busy`` and ``busy_cpu`` add up
    the kernel's wall and CPU time so callers can take it out of theirs.
    """

    def __init__(self, period: float):
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self.busy = self.busy_cpu = 0.0
        self._last = 0.0

    def _tick(self, _signum, _frame):
        t0, c0 = time.perf_counter(), time.process_time()
        probe_kernel()
        t1, c1 = time.perf_counter(), time.process_time()
        self.samples.append((t0 - self._last, t1 - t0))
        self.busy += t1 - t0
        self.busy_cpu += c1 - c0
        self._last = t1

    def __enter__(self):
        self._last = time.perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)


def run_pass(ballspec, cmds, speed: SpeedProbe | None = None) -> Pass:
    merge_warning = ballspec.spectrum.AmbiguousMergeWarning
    outputs, walls, cpus, probed = [], [], [], []
    merges = 0
    for argv in cmds:
        buf = io.StringIO()
        busy0, busy_cpu0 = (speed.busy, speed.busy_cpu) if speed else (0.0, 0.0)
        first = len(speed.samples) if speed else 0
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = ballspec.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed command, not a failed benchmark
                code = f"raised {exc!r}"
        busy, busy_cpu = (speed.busy - busy0, speed.busy_cpu - busy_cpu0) if speed else (0.0, 0.0)
        walls.append(time.perf_counter() - t0 - busy)
        cpus.append(time.process_time() - cpu0 - busy_cpu)
        outputs.append((code, buf.getvalue()))
        probed.append(speed.samples[first:] if speed else [])
        merges += sum(issubclass(w.category, merge_warning) for w in caught)
    return Pass(walls, cpus, outputs, merges, probed)


def joined(parts: list[Pass]) -> Pass:
    return Pass(
        [w for p in parts for w in p.walls],
        [c for p in parts for c in p.cpus],
        [o for p in parts for o in p.outputs],
        sum(p.merge_warnings for p in parts),
    )


def keep_going(start: float, seconds: float, last: float) -> bool:
    """Start another pass only if one more like the last fits in the budget."""
    return time.perf_counter() - start + last <= seconds


def count_failures(cmds, passes, check: checker.Checker, reasons: dict) -> int:
    """Failed (pass, command) pairs; each distinct output is checked once."""
    verdicts: dict = {}
    failed = 0
    for p in passes:
        for argv, (code, out) in zip(cmds, p.outputs):
            key = (tuple(argv), code, out)
            if key not in verdicts:
                verdicts[key] = check.check(argv, code, out) if isinstance(code, int) else code
            if verdicts[key] is not None:
                failed += 1
                reasons.setdefault(" ".join(argv), verdicts[key])
    return failed


def layer_values(tracer: tracing.Tracer, p: Pass) -> dict[str, float]:
    values = dict(tracing.summarize(tracer.spans))
    values.update(tracer.counts)
    values.update(tracer.maxima)
    eigenvalues = values.get("tridiagonal.eigenvalue_k.calls", 0)
    sturm = values.get("tridiagonal.count_below.calls", 0)
    values["tridiagonal.sturm_per_eigenvalue"] = sturm / eigenvalues if eigenvalues else 0.0
    values["spectrum.merge_warnings"] = p.merge_warnings
    values["cli.stdout_bytes"] = sum(len(out.encode()) for _, out in p.outputs)
    return values


def span_arrays(spans, names: dict[str, int], pass_index: int) -> dict[str, np.ndarray]:
    return {
        "name": np.array([names.setdefault(s[0], len(names)) for s in spans], dtype=np.int32),
        "start": np.array([s[1] for s in spans]),
        "end": np.array([s[2] for s in spans]),
        "parent": np.array([s[3] for s in spans], dtype=np.int64),
        "command": np.array([s[4] for s in spans], dtype=np.int32),
        "pass": np.full(len(spans), pass_index, dtype=np.int32),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def kernel_rate(samples) -> float:
    """Mean probe kernels per second over the samples."""
    return statistics.fmean(1.0 / kernel for _, kernel in samples)


def reference_seconds(wall: float, samples, rate: float) -> float:
    """A command's wall time as it would read at ``PROBE_REF_RATE``.

    The timer cannot interrupt native code, so a gap between samples longer
    than one period was held inside a native call, mostly a large LAPACK
    one.  Such calls barely slow when the host slows the interpreter, and
    the probe cannot see them, so that time is kept as measured.  The rest
    is scaled by the kernel's speed during the command, ``rate``.
    """
    held = min(wall, sum(max(0.0, gap - PROBE_PERIOD) for gap, _ in samples))
    return held + (wall - held) * rate / PROBE_REF_RATE


def median_of_each(passes: list[list[float]]) -> float:
    """Sum over commands of each command's median across passes."""
    return sum(statistics.median(col) for col in zip(*passes))


def run_untraced(ballspec, cmds, seconds):
    setup = measure_setup(SETUP_SAMPLES)
    setup_ref = [elapsed * rate / PROBE_REF_RATE for elapsed, rate in setup]
    start = time.perf_counter()
    passes = []
    with SpeedProbe(PROBE_PERIOD) as speed:
        while not passes or keep_going(start, seconds, passes[-1].wall * (1 + PROBE_SHARE)):
            passes.append(run_pass(ballspec, cmds, speed))
    # A command too short to be sampled takes the rate of its whole pass.
    ref_walls, ref_cpus, rates = [], [], []
    for p in passes:
        whole = kernel_rate([x for s in p.probed for x in s] or speed.samples)
        rates.append([kernel_rate(s) if s else whole for s in p.probed])
        ref_walls.append([reference_seconds(w, s, r) for w, s, r in zip(p.walls, p.probed, rates[-1])])
        ref_cpus.append([c * rw / w for c, w, rw in zip(p.cpus, p.walls, ref_walls[-1])])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "wall_ref_s": median_of_each(ref_walls),
        "cpu_ref_s": median_of_each(ref_cpus),
        "peak_rss_mb": peak_rss_mb,
    }
    raw_wall = median_of_each([p.walls for p in passes])
    raw_cpu = median_of_each([p.cpus for p in passes])
    samples = {"setup_s": len(setup), "passes": len(passes), "speed_samples": len(speed.samples)}
    notes = {
        "setup_s": f"median of {len(setup)} interpreters; raw {statistics.median(e for e, _ in setup):.4g} s",
        "wall_ref_s": f"per-command medians of {len(passes)} passes; raw wall_s {raw_wall:.4g} s",
        "cpu_ref_s": f"per-command medians of {len(passes)} passes; raw cpu_s {raw_cpu:.4g} s",
        "peak_rss_mb": "ru_maxrss after the last pass",
    }
    raw = {"setup_s": [e for e, _ in setup], "wall_s": raw_wall, "cpu_s": raw_cpu, "kernels_per_s": rates,
           "walls": [p.walls for p in passes], "cpus": [p.cpus for p in passes],
           "probe_share": speed.busy / (time.perf_counter() - start)}
    return passes, metrics, samples, notes, raw


def run_traced(ballspec, cmds, seconds, workload):
    tracer = tracing.Tracer()
    plain, traced, per_pass, arrays = [], [], [], []
    names: dict[str, int] = {}
    start = time.perf_counter()
    while True:
        # Each command runs untraced and then traced back to back, so both
        # sides of the overhead ratio see the same state of a shared host.
        plain_parts, traced_parts = [], []
        for i, argv in enumerate(cmds):
            plain_parts.append(run_pass(ballspec, [argv]))
            tracer.command = i
            tracer.install()
            try:
                traced_parts.append(run_pass(ballspec, [argv]))
            finally:
                tracer.uninstall()
        plain.append(joined(plain_parts))
        traced.append(joined(traced_parts))
        per_pass.append(layer_values(tracer, traced[-1]))
        arrays.append(span_arrays(tracer.spans, names, len(traced) - 1))
        tracer.reset()
        if not keep_going(start, seconds, plain[-1].wall + traced[-1].wall):
            break
    OUT.mkdir(exist_ok=True)
    np.savez(
        OUT / f"spans-{workload}.npz",
        names=np.array(sorted(names, key=names.get)),
        **{key: np.concatenate([a[key] for a in arrays]) for key in arrays[0]},
    )
    metrics = {}
    for name in PER_LAYER:
        if name != "trace.overhead_frac":
            metrics[name] = statistics.median(v.get(name, 0.0) for v in per_pass)
    metrics["trace.overhead_frac"] = (median_of_each([p.walls for p in traced])
                                      / median_of_each([p.walls for p in plain]) - 1.0)
    samples = {"traced_passes": len(traced), "untraced_passes": len(plain)}
    return plain, traced, metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    ballspec = load_ballspec()
    np.linalg.eigh(np.ones((256, 256)))  # BLAS start-up belongs to set-up, not to a pass
    cmds = workloads.commands(args.workload, args.seed)

    reasons: dict[str, str] = {}
    check = checker.Checker()
    if args.trace:
        plain, traced, metrics, samples = run_traced(ballspec, cmds, args.seconds, args.workload)
        units = PER_LAYER
        failed = count_failures(cmds, plain + traced, check, reasons)
        for p in traced:
            for argv, a, b in zip(cmds, plain[0].outputs, p.outputs):
                if a != b:
                    failed += 1
                    reasons.setdefault(" ".join(argv), "stdout differs under the tracer")
        attempted = len(cmds) * (len(plain) + len(traced))
        notes, raw = {}, {}
    else:
        passes, metrics, samples, notes, raw = run_untraced(ballspec, cmds, args.seconds)
        units = END_TO_END
        failed = count_failures(cmds, passes, check, reasons)
        attempted = len(cmds) * len(passes)
    samples["commands_per_pass"] = len(cmds)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "samples": samples,
        "pass_wall_s": [p.wall for p in (traced if args.trace else passes)],
        "raw": raw,
        "failed_frac": failed / attempted,
        "failures": reasons,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n"
    )

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"BLAS threads {BLAS_THREADS}  samples {json.dumps(samples)}")
    for name, unit in units.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"#   {name:45s} {metrics[name]:14.6g} {unit}{extra}")
    print(f"#   {'failed_frac':45s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} commands)")
    for cmd, why in reasons.items():
        print(f"# FAILED {cmd}: {why}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
