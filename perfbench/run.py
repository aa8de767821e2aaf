"""The tfuprob benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload search-grid --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in this single process: it
calls `tfuprob.cli.main(argv)` in-process with stdout captured, and sends
the next op when the previous one returns. Inputs come from `inputs.py`,
made from `--seed`. One untimed pass warms caches and checks every distinct
output in full (`verify.py`); timed passes repeat the mix until `--seconds`
have passed and at least `MIN_SAMPLES` ops have run, and each repeated op
must reproduce its first output byte for byte.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the same passes
untraced and then traced (`tracer.py`) and prints the per-layer metrics and
the tracing overhead. Inputs are written under `.bench_work/` and removed at
exit; a record of the run (machine, input properties, latencies, result
digests) and the spans of a traced run are kept under `.bench_out/`.

The package is imported from `src/` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import hashlib
import importlib.util
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
MIN_SAMPLES = 100  # p90 needs ten samples beyond it
SETUP_SPAWNS = 7
SPAN_BUDGET = 1_000_000  # ~28 MB of spans in memory
# One BLAS thread: with two, a helper thread spun while the hypervisor ran
# another guest on the second vCPU, and BLAS-bound ops swung 2x between runs.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 0
# mallopt parameters (glibc malloc.h).
M_TRIM_THRESHOLD = -1
M_MMAP_MAX = -4

END_TO_END_UNITS = {
    "ops_per_cpu_s": "1/s",
    "cpu_p50_ms": "ms",
    "cpu_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "calls": "count/op", "self_ms": "ms/op", "share": "ratio",
    "tuples": "count/op", "ns_per_tuple": "ns", "sheet_mb": "MB", "peak_alloc_mb": "MB",
    "dense_ms": "ms/op", "witness_ratio": "ratio", "bytes_in": "B/op", "bytes_out": "B/op",
    "mb_per_s": "MB/s", "cases": "count/op", "overhead_ratio": "ratio",
}


def keep_freed_memory() -> bool:
    """Make malloc keep freed blocks in the heap for reuse, instead of giving
    blocks above its mmap threshold back to the kernel; True if it took.

    A search-grid op allocates fresh score cubes of up to ~450 MB. By default
    each is mapped afresh and faulted in page by page, and on the measuring VM
    that system time followed the host, not the program: 450 MB took ~130 ms
    when the guest had freed the pages a moment before and ~500 ms four
    seconds later, and it was the part of an op's CPU time that varied most
    between runs. With the heap kept, the ops after warm-up reuse the cubes'
    pages; the memory the program asks for still shows in `peak_rss_mb`.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        return bool(libc.mallopt(M_MMAP_MAX, 0) and libc.mallopt(M_TRIM_THRESHOLD, 2**31 - 1))
    except (OSError, AttributeError):  # not glibc
        return False


def cap_threads() -> int:
    """Run BLAS/OpenMP single-threaded; returns the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return nproc


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def op_medians(samples: list[float], width: int) -> list[float]:
    """The median of each op of a mix of `width` ops, from samples taken pass
    by pass, each pass the whole mix in order."""
    return [statistics.median(samples[slot::width]) for slot in range(width)]


def machine_record(nproc: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            caches.append(" ".join((index / f).read_text().strip() for f in ("level", "type", "size")))
    source = hashlib.sha256()
    for path in sorted((SRC / "tfuprob").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_rev": git_revision(),
        "src_sha256": source.hexdigest(),
    }


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def steal_ticks() -> int:
    """Ticks the hypervisor gave to other guests, summed over all CPUs."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def measure_setup(count: int) -> tuple[list[float], list[float]]:
    """CPU seconds a fresh interpreter spends from its start until
    `tfuprob.cli` is imported, and the wall seconds from spawning it until
    then, read on the monotonic clock both processes share."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import tfuprob.cli, time; "
            "print(repr(time.process_time()), repr(time.monotonic()))")
    cpu, wall = [], []
    for _ in range(count):
        begin = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        spent, ready = (float(x) for x in done.stdout.split())
        cpu.append(spent)
        wall.append(ready - begin)
    return cpu, wall


class Loop:
    """The closed loop: runs ops, times them, and checks their outputs."""

    def __init__(self, cli, verify, seed: int):
        import numpy as np

        self.cli = cli
        self.verify = verify
        self.rng = np.random.default_rng([seed, 99])
        self.known: dict[str, str] = {}   # op name -> sha256 of its first output
        self.digests: dict[str, str] = {}
        self.pending: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, op) -> tuple[int | None, str, float, float]:
        """Run one op: exit code, output (stderr on failure), wall and CPU seconds."""
        out, err = io.StringIO(), io.StringIO()
        cpu = time.thread_time()
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op.resolved_argv())
        except Exception as exc:  # an op that crashes is a failed op, not a crashed run
            code, text = None, f"{type(exc).__name__}: {exc}"
        else:
            text = out.getvalue() if code == 0 else err.getvalue()
        elapsed = time.perf_counter() - begin
        return code, text, elapsed, time.thread_time() - cpu

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.name}: {why}")

    def settle(self, op, code, text, full_check: bool) -> None:
        """Count the op and check its output now, or later if `full_check`
        is False and the output is new (the tracer may be installed)."""
        self.attempted += 1
        if code != 0:
            self._fail(op, f"exit {code}: {text.strip()[:200]}")
            return
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.known.get(op.name)
        if first is not None:
            if first != digest:
                self._fail(op, "output differs from its first run")
            return
        self.known[op.name] = digest
        if full_check:
            self.full_check(op, text)
        else:
            self.pending.append((op, text))

    def full_check(self, op, text: str) -> None:
        try:
            problems = self.verify.check_output(op, text, self.rng)
            self.digests[op.name] = self.verify.result_digest(op, text)
        except Exception as exc:  # a report the checker cannot read is a wrong report
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self._fail(op, "; ".join(problems))

    def drain(self) -> None:
        for op, text in self.pending:
            self.full_check(op, text)
        self.pending.clear()

    def run_pass(self, ops, wall: list[float], cpu: list[float]) -> None:
        for op in ops:
            code, text, elapsed, spent = self.call(op)
            wall.append(elapsed)
            cpu.append(spent)
            self.settle(op, code, text, full_check=False)

    def passes(self, mix, seconds: float, min_samples: int):
        """Whole passes until `seconds` of op wall time and `min_samples` ops.
        Returns the wall and CPU seconds of each op and the number of passes."""
        wall: list[float] = []
        cpu: list[float] = []
        done = 0
        while sum(wall) < seconds or len(wall) < min_samples:
            self.run_pass(mix(done), wall, cpu)
            done += 1
        return wall, cpu, done


def run(args) -> dict:
    heap_kept = keep_freed_memory()
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    # The package and numpy are imported only now, after the thread caps.
    import tfuprob
    from tfuprob import cli

    if Path(tfuprob.__file__).resolve().parent != SRC / "tfuprob":
        raise SystemExit(f"error: imported tfuprob from {tfuprob.__file__}, not {SRC}")
    import inputs
    import verify
    from tracer import Tracer

    machine = machine_record(nproc)
    machine["malloc_heap_kept"] = heap_kept
    print("machine " + json.dumps(machine, sort_keys=True))
    setup, setup_wall = measure_setup(SETUP_SPAWNS) if not args.trace else ([], [])

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    loop = Loop(cli, verify, args.seed)
    try:
        mixes: dict[int, list] = {}

        def mix(pass_index: int) -> list:
            if args.workload != "check-seeds":
                pass_index = 0  # the same files every pass
            if pass_index not in mixes:
                mixes[pass_index] = inputs.build_mix(args.workload, args.seed, pass_index)
                inputs.write_inputs(mixes[pass_index], workdir)
            return mixes[pass_index]

        # Warm-up: one untimed pass, every output checked in full.
        for op in mix(0):
            code, text, _, _ = loop.call(op)
            loop.settle(op, code, text, full_check=True)

        record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                        "seconds": args.seconds, "machine": machine,
                        "mix": [{"name": op.name, **op.props} for op in mix(0)]}
        if not args.trace:
            steal = steal_ticks()
            latencies, cpu, passes = loop.passes(mix, args.seconds, MIN_SAMPLES)
            steal = steal_ticks() - steal
            loop.drain()
            # Per-op medians: the ops of eval-large's mix fall in two halves
            # ~20% apart, and the median of all samples wandered in the gap.
            medians = op_medians(cpu, len(mix(0)))
            metrics = {
                "ops_per_cpu_s": len(medians) / sum(medians),
                "cpu_p50_ms": 1e3 * statistics.median(medians),
                "cpu_p90_ms": 1e3 * percentile(cpu, 90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
                "setup_s": statistics.median(setup),
            }
            samples = dict.fromkeys(metrics, len(cpu))
            samples["setup_s"] = len(setup)
            # Wall-clock figures, for reference only: on a shared host they
            # include time the hypervisor gives to other guests (steal).
            wall = {
                "ops_per_s": len(latencies) / sum(latencies),
                "latency_p50_ms": 1e3 * statistics.median(latencies),
                "latency_p90_ms": 1e3 * percentile(latencies, 90),
                "setup_s": statistics.median(setup_wall),
                "steal_share": steal / (os.sysconf("SC_CLK_TCK") * nproc * sum(latencies)),
            }
            print("wall " + json.dumps(wall, sort_keys=True))
            record.update(latencies=latencies, cpu=cpu, wall=wall, setup=setup,
                          setup_wall=setup_wall, passes=passes)
        else:
            # Half the time untraced, then the same passes traced, up to a span budget.
            plain, _, passes = loop.passes(mix, args.seconds / 2, 1)
            tracer = Tracer()
            traced: list[float] = []
            tracer.install()
            try:
                for pass_index in range(passes):
                    loop.run_pass(mix(pass_index), traced, [])
                    if len(tracer) >= SPAN_BUDGET:
                        break
            finally:
                tracer.uninstall()
            loop.drain()
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_ratio"] = sum(traced) / sum(plain[:len(traced)])
            samples = dict.fromkeys(metrics, len(traced))
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"spans-{args.workload}.npz")
            record.update(latencies=plain, traced_latencies=traced, passes=passes,
                          spans=len(tracer))
        record.update(metrics=metrics, attempted=loop.attempted, failed=loop.failed,
                      failures=loop.failures)
        if args.seed == DEFAULT_SEED:
            record["digests"] = loop.digests
        OUT.mkdir(exist_ok=True)
        out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for failure in loop.failures:
        print(f"failed {failure}", file=sys.stderr)
    units = {**END_TO_END_UNITS, **{name: PER_LAYER_UNITS[name.rsplit(".", 1)[1]]
                                    for name in metrics if "." in name}}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value!r} {units[name]} (n={samples[name]})")
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("search-grid", "eval-large", "check-seeds"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tfuprob" / "cli.py").is_file():
        print(f"error: no tfuprob sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
