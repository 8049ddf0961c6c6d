"""eplab benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload readout --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. One caller in one process runs ops back to back: each op
is one in-process `eplab.cli.main(argv)` call that writes its output to a
file, and the next op starts when the previous one returns. Outputs are
checked after the timed loop. `--trace 0` reports the end-to-end metrics,
with times at the reference speed of the `Gauge` kernel; `--trace 1` runs
each op once untraced and once traced and reports the per-layer metrics.
The last line of stdout is one JSON object. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set by main() before numpy loads: the op kernels work on 3x3 and 6x6
# matrices, so extra BLAS threads only add noise. One is at or below any nproc.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # ops that must lie above the reported tail percentile
FINGERPRINT_OPS = 3  # every run completes at least this many ops

# (name, unit, better) of the end-to-end metrics in the JSON result. fail_frac
# is printed in the report; the result carries it as `failed` / `attempted`.
E2E_METRICS = [
    ("ops_per_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]
FAIL_FRAC = ("fail_frac", "ratio", "lower")


def tail_percentile(latencies: list[float]):
    """(percentile, latency) of the highest percentile with TAIL_BEYOND ops
    above it, or None when that percentile is not above the median."""
    lat = sorted(latencies)
    k = len(lat) - TAIL_BEYOND
    if k <= len(lat) / 2:
        return None
    return 100.0 * k / len(lat), lat[k - 1]


def e2e_values(latencies, rss_mb, setups) -> tuple[dict, str]:
    """End-to-end metric values from reference-speed op latencies and set-up
    times (seconds), and the note printed beside op_tail_ms."""
    p50 = statistics.median(latencies) * 1e3
    tail = tail_percentile(latencies)
    if tail is None:
        tail_ms = p50
        note = f"no tail above the median in {len(latencies)} ops; reports p50"
    else:
        tail_ms = tail[1] * 1e3
        note = f"p{tail[0]:.1f} of {len(latencies)} ops"
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": p50,
        "op_tail_ms": tail_ms,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }
    return values, note


@dataclass
class Op:
    argv: list[str]
    rc: object  # exit code, or the text of the exception the op raised
    latency_s: float  # wall time of the cli.main call
    out_path: Path
    speed: float = 1.0  # machine speed next to the op, from the gauge
    ok: bool = False
    reason: str = "unchecked"
    fingerprint: tuple = ()

    @property
    def ref_latency_s(self) -> float:
        """Latency at the gauge's reference speed."""
        return self.latency_s * self.speed


class Gauge:
    """Machine-speed probe: a fixed kernel that never touches eplab.

    On a shared 2-core host the speed swings up to 2x within seconds (other
    tenants share its cores and caches), which moves every wall time run to run.
    The kernel runs before and after every op; an op's latency is scaled by
    REF_S over the mean of the two samples, i.e. reported at the speed the
    machine has when the kernel takes REF_S. The kernel mixes the three kinds
    of work the ops do: interpreted Python, per-call numpy on 3x3 matrices
    and batched 3x3 products over a 300 KB array.
    """

    REF_S = 4.5e-3  # kernel time in fast phases of a 2-core 2.0 GHz Xeon host

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.batch = rng.standard_normal((2048, 3, 3)) + 1j * rng.standard_normal((2048, 3, 3))
        self.small = list(self.batch[:500])

    def sample(self) -> float:
        """Kernel time with warm caches: the first pass refills what the op evicted."""
        self._kernel()
        return self._kernel()

    def _kernel(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        x = 0.0
        for i in range(15000):
            x += (i * 0.5) % 7.0
        m = np.eye(3, dtype=complex)
        for a in self.small:
            m = (m @ a) / 3.0
        b = self.batch
        for _ in range(3):
            b = np.matmul(b, self.batch) / 3.0
        return time.perf_counter() - t0

    def speed(self, before: float, after: float) -> float:
        return self.REF_S / ((before + after) / 2.0)


def run_op(argv: list[str], out_path: Path) -> Op:
    """One op: a timed `eplab.cli.main` call. An op that raises is a failed
    op, never the end of the run."""
    from eplab import cli

    t0 = time.perf_counter()
    try:
        rc = cli.main([*argv, "-o", str(out_path)])
    except Exception as exc:  # noqa: BLE001 - the run must go on
        rc = f"raised {exc!r}"
    return Op(argv, rc, time.perf_counter() - t0, out_path)


def gauged(gauge: Gauge, argv: list[str], out_path: Path, before: float) -> tuple[Op, float]:
    """Run one op between two gauge samples; returns the op and the second sample."""
    op = run_op(argv, out_path)
    after = gauge.sample()
    op.speed = gauge.speed(before, after)
    return op, after


def closed_loop(stream, seconds: float, workdir: Path, gauge: Gauge) -> list[Op]:
    done = []
    start = time.perf_counter()
    sample = gauge.sample()
    while time.perf_counter() - start < seconds:
        op, sample = gauged(gauge, next(stream), workdir / f"op{len(done)}.out", sample)
        done.append(op)
    return done


def warm_up(argvs: list[list[str]], workdir: Path) -> list[Op]:
    """Untimed warm-up ops; they only have to exit 0."""
    ops = [run_op(argv, workdir / f"warmup{i}.out") for i, argv in enumerate(argvs)]
    for op in ops:
        op.ok, op.reason = op.rc == 0, f"exit {op.rc}"
    return ops


def traced_pairs(stream, seconds: float, workdir: Path, gauge: Gauge, tracer, installed):
    """Closed loop over pairs: each op runs once untraced and once traced,
    the first of the two alternating, so drift cancels in the overhead."""
    plain, traced = [], []
    start = time.perf_counter()
    sample = gauge.sample()
    while time.perf_counter() - start < seconds:
        argv, i = next(stream), len(plain)
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                with installed(tracer):
                    op, sample = gauged(gauge, argv, workdir / f"traced{i}.out", sample)
                traced.append(op)
            else:
                op, sample = gauged(gauge, argv, workdir / f"plain{i}.out", sample)
                plain.append(op)
    return plain, traced


def check_ops(ops: list[Op]) -> None:
    from checks import check

    for op in ops:
        text = op.out_path.read_text() if op.out_path.is_file() else None
        op.ok, op.reason, op.fingerprint = check(op.argv, op.rc, text)


def measure_setup(workload: str, workdir: Path, gauge: Gauge) -> list[tuple[float, float]]:
    """(wall seconds, speed) from process start to ready (imports plus the
    warm-up ops), each in a fresh interpreter between two gauge samples. The
    probe prints its ready time on the system-wide monotonic clock."""
    out = []
    before = gauge.sample()
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(workdir / f"probe{i}")]
        t0 = time.monotonic()
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        fields = res.stdout.split()
        if res.returncode != 0 or fields[:1] != ["ready"]:
            raise RuntimeError(f"set-up probe failed with exit {res.returncode}: {res.stderr}")
        after = gauge.sample()
        out.append((float(fields[1]) - t0, gauge.speed(before, after)))
        before = after
    return out


def provenance(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        res = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, env=env)
        if res.returncode == 0:
            sha = res.stdout.strip()
            res = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                                 capture_output=True, text=True, env=env)
            dirty = bool(res.stdout.strip())
    src = hashlib.sha256()
    for path in sorted((SRC / "eplab").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loop": "closed, 1 caller, 1 process",
    }


def fingerprint_lines(ops: list[Op]) -> list[str]:
    """Result numbers of the first ops of the stream, which every run of the
    same seed completes, plus a digest of them to 6 significant digits."""
    head = ops[:FINGERPRINT_OPS]
    rounded = [[f"{v:.6g}" for v in op.fingerprint] for op in head]
    digest = hashlib.sha256(json.dumps([[op.argv, r] for op, r in zip(head, rounded)]).encode())
    lines = [f"fingerprint {digest.hexdigest()[:16]} (first {len(head)} ops)"]
    for op in head:
        lines.append(f"  {' '.join(op.argv)} -> {', '.join(repr(v) for v in op.fingerprint)}")
    return lines


def kind_lines(ops: list[Op]) -> list[str]:
    kinds: dict[str, list[float]] = {}
    for op in ops:
        kinds.setdefault(op.argv[0], []).append(op.latency_s)
    return [f"  {k}: {len(v)} ops, median wall time {statistics.median(v) * 1e3:.1f} ms"
            for k, v in sorted(kinds.items())]


def failure_lines(ops: list[Op]) -> list[str]:
    return [f"FAILED op: {' '.join(op.argv)} ({op.reason})" for op in ops if not op.ok]


def e2e_report(values: dict, tail_note: str, attempted: int, failed: int, setups) -> list[str]:
    lines = []
    for name, unit, _ in E2E_METRICS:
        line = f"{name:<12} {values[name]:.6g} {unit}"
        if name == "op_tail_ms":
            line += f"  ({tail_note})"
        elif name == "setup_s":
            line += f"  (median of {len(setups)} set-ups: {', '.join(f'{s:.3f}' for s in setups)})"
        lines.append(line)
    name, unit, _ = FAIL_FRAC
    lines.append(f"{name:<12} {failed / attempted:.6g} {unit}  ({failed}/{attempted} ops)")
    return lines


def wall_line(ops: list[Op], setups) -> str:
    """The unscaled wall times behind the reference-speed metrics."""
    lat = [op.latency_s for op in ops]
    speeds = [op.speed for op in ops]
    return (f"wall clock: {len(lat) / sum(lat):.6g} ops/s, op p50 {statistics.median(lat) * 1e3:.6g} ms, "
            f"set-up median {statistics.median(w for w, _ in setups):.6g} s; gauge speed median "
            f"{statistics.median(speeds):.3f} (range {min(speeds):.3f}-{max(speeds):.3f})")


def layer_report(values: dict) -> list[str]:
    from spans import LAYER_METRICS

    return [f"{name:<46} {values[name]:.6g} {unit}" for name, unit, _ in LAYER_METRICS]


def result_line(correct: bool, attempted: int, failed: int, values: dict, specs) -> str:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    os.environ.update({var: THREADS for var in THREAD_VARS})
    if hasattr(os, "sched_setaffinity"):  # the gauge must sample the CPU the ops run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eplab" / "cli.py").is_file():
        print(f"error: no eplab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eplab

    if Path(eplab.__file__).resolve().parent != SRC / "eplab":
        print(f"error: eplab imported from {eplab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    import workloads

    print("provenance: " + json.dumps(provenance(args), sort_keys=True))
    gauge = Gauge()
    setups = [] if args.trace else measure_setup(args.workload, workdir, gauge)
    warm = warm_up(workloads.WARMUP[args.workload], workdir)
    stream = workloads.ops(args.workload, args.seed)

    if args.trace:
        from spans import LAYER_METRICS, Tracer, installed, layer_values, top_layers

        tracer = Tracer()
        plain, ops = traced_pairs(stream, args.seconds, workdir, gauge, tracer, installed)
        checked = warm + plain + ops
    else:
        ops = closed_loop(stream, args.seconds, workdir, gauge)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = warm + ops
    check_ops(checked[len(warm):])
    attempted = len(checked)
    failed = sum(not op.ok for op in checked)

    wall_s = sum(op.latency_s for op in ops)
    lines = [f"workload {args.workload}: {len(ops)} ops in {wall_s:.3f} s"] + kind_lines(ops)
    if args.trace:
        traced_s = sum(op.ref_latency_s for op in ops)
        untraced_s = sum(op.ref_latency_s for op in plain)
        values = layer_values(tracer, len(ops), wall_s, traced_s - untraced_s)
        specs = LAYER_METRICS
        lines.append(f"tracing overhead: {traced_s - untraced_s:+.4f} s over {len(ops)} ops "
                     f"(reference speed: traced {traced_s:.4f} s, untraced {untraced_s:.4f} s)")
        lines.append("largest self-time shares: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in top_layers(tracer)))
        lines += layer_report(values)
    else:
        ref_setups = [wall * speed for wall, speed in setups]
        values, tail_note = e2e_values([op.ref_latency_s for op in ops], rss_mb, ref_setups)
        specs = E2E_METRICS
        lines += e2e_report(values, tail_note, attempted, failed, ref_setups)
        lines.append(wall_line(ops, setups))
    lines += fingerprint_lines(ops)
    lines += failure_lines(checked)
    print("\n".join(lines))
    print(result_line(failed == 0, attempted, failed, values, specs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
