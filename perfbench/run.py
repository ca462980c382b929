"""Benchmark of torusquant: seeded workloads in a closed loop, one client.

    python3 perfbench/run.py --workload pairing --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1                     # every workload

Run it from the root of a source checkout: it measures the package under
``src/`` (never an installed copy) and exits with code 2 when there is none.

One process runs one workload.  A pass is a list of seeded calls (see
``workloads.py``); after one untimed warm-up pass (the package fills lazy
caches such as ``_labels`` and ``_stack_inv`` on first use), the process runs
whole passes, each call timed alone, until the timed calls add up to
``--seconds``.  Each output is checked after its timer stops and is dropped
before the next call starts.  No timed call is dropped from the figures.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
machine of fixed speed: between calls the process times ``reference()``, a
fixed routine that runs none of torusquant, and each time is multiplied by
(``REF_NOMINAL_S`` / the reference's median time in the same stretch of the
run) ** ``REF_ELASTICITY``.  A shared host speeds up and slows down by up to
a half over minutes, and the reference moves with it; the summary prints the
raw wall figures as well.

- ``setup_s``: median time over fresh interpreters that import
  torusquant and build the first pass's inputs, up to the first call;
- ``calls_per_s``: timed calls over the time they took;
- ``call_p50_ms`` and ``call_tail_ms``: the median, and the highest of
  p50/p75/p90/p95/p99/p99.9 that leaves at least 10 calls above it (the
  summary names the percentile and the sample count);
- ``ok_ratio``: calls that returned and passed their check, over calls
  attempted (1 - failed_ratio, which the summary prints as well);
- ``peak_rss_mb``: the process's peak resident memory.

``--trace 1`` runs a fixed number of passes twice each, once plain and once
under ``spans.Tracer``, and prints the per-layer metrics: calls, self time
and failures of each traced function, ``quantize.exact_kept_ratio`` and
``trace.overhead_ratio`` (traced over plain time of the same calls).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary and the run's provenance record.
"""

import os

# One BLAS thread, set before numpy loads.  On a two-core machine a second
# BLAS thread moved an operators pass from 2.0 s to 2.8 s; one thread also
# keeps the client at one thread.  The provenance record reports the count
# the library actually uses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7
# Scaled times estimate wall times on a machine where reference() takes
# exactly REF_NOMINAL_S.  On the 2-core Xeon VM the bounds were set on it
# took 9 ms in fast periods and up to 20 ms in slow ones.  Over 60 runs there
# the workloads' wall times moved as the reference's time to a power of 0.55
# to 0.98, mostly about 0.7 (log-log slopes); scaling by the full ratio
# over-corrected in fast periods.  One sample is taken after each
# REF_EVERY_S of timed calls.
REF_NOMINAL_S = 0.010
REF_ELASTICITY = 0.7
REF_EVERY_S = 0.25
TRACE_PASSES = {"pairing": 2, "operators": 4, "desk": 6}
WORKLOADS = tuple(TRACE_PASSES)
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
SHOWN_FAILURES = 3


def _load_package():
    """Import torusquant from this checkout's ``src/``, or exit with 2."""
    if not (SRC / "torusquant" / "__init__.py").is_file():
        print(f"perfbench: no torusquant source tree under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import torusquant

    if SRC not in Path(torusquant.__file__).resolve().parents:
        print(f"perfbench: torusquant loaded from {torusquant.__file__}", file=sys.stderr)
        sys.exit(2)
    return torusquant


# ---------------------------------------------------------------------------
# measuring

_REF_MATRIX = np.exp(1j * np.arange(64 * 64).reshape(64, 64) / 7.0)


def reference():
    """Seconds a fixed routine takes now, one that runs none of torusquant:
    Fraction sums kept in a dict, the interpreter work of the phase
    assembly, then a chain of 64 x 64 complex matrix products, the dense
    work of the operators.  In probes each half alone tracked the machine's
    speed on some workloads and not on others; together they tracked it on
    all three.  The collector is off while it runs, so the program's heap
    cannot change its time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = {}
        for i in range(2000):
            key = (i % 31, i % 7)
            acc[key] = acc.get(key, 0) + Fraction(i % 13, 7 + i % 5)
        m = np.eye(64, dtype=complex)
        for _ in range(80):
            m = m @ _REF_MATRIX
            m /= abs(m[0, 0]) + 1.0
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def reference_scale(refs):
    """Factor from wall time to time at the reference speed, given the
    reference() times of a stretch of the run."""
    return (REF_NOMINAL_S / statistics.median(refs)) ** REF_ELASTICITY


class Loop:
    """Timed calls of one run, with their failures."""

    def __init__(self):
        self.samples = []  # (label, seconds, ok)
        self.busy = 0.0
        self.refs = []  # reference() times, taken between calls
        self._ref_at = -REF_EVERY_S

    def run(self, call):
        """Time one call alone, then check its output outside the timer."""
        start = perf_counter()
        try:
            out = call.run()
        except Exception:
            elapsed, ok = perf_counter() - start, False
            self._report(call)
        else:
            elapsed = perf_counter() - start
            try:
                ok = bool(call.check(out))
            except Exception:
                ok = False
                self._report(call)
            del out
        self.samples.append((call.label, elapsed, ok))
        self.busy += elapsed
        if self.busy - self._ref_at >= REF_EVERY_S:
            self.refs.append(reference())
            self._ref_at = self.busy
        return elapsed, ok

    @property
    def scale(self):
        """Factor from wall time to time at the reference speed."""
        return reference_scale(self.refs)

    def _report(self, call):
        if self.failed < SHOWN_FAILURES:
            print(f"perfbench: call failed: {call.key}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    @property
    def failed(self):
        return sum(not ok for _, _, ok in self.samples)


def tail(sorted_values):
    """(percentile, value): the highest ladder percentile, nearest rank, with
    at least TAIL_BEYOND samples above its position."""
    n = len(sorted_values)
    best = None
    for p in TAIL_LADDER:
        idx = max(math.ceil(p / 100 * n) - 1, 0)
        if n - 1 - idx >= TAIL_BEYOND or best is None:
            best = (p, sorted_values[idx])
    return best


def setup_times(workload, seed):
    """Wall seconds from spawning a fresh interpreter until its inputs exist,
    and reference() times taken around the spawns.

    The child prints the system-wide monotonic clock once its inputs are
    built; timing the child's exit instead would add interpreter teardown
    and the 50 ms polling step of ``subprocess.run`` with a timeout.
    """
    out, refs = [], [reference()]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        done = subprocess.run(cmd, check=True, timeout=120, capture_output=True,
                              text=True, cwd=ROOT)
        out.append(float(done.stdout.split()[-1]) - start)
        refs.append(reference())
    return out, refs


def warm_up(workloads, workload, seed):
    """One untimed pass on inputs of its own; True if every call passed."""
    loop = Loop()
    calls, _ = workloads.make_pass(workload, seed, "warm")
    for call in calls:
        loop.run(call)
    return loop.failed == 0


def run_plain(workloads, workload, seed, seconds):
    setup, setup_refs = setup_times(workload, seed)
    setup_scale = reference_scale(setup_refs)
    calls, skipped = workloads.make_pass(workload, seed, 0)
    digest = workloads.input_digest(calls)
    warm_ok = warm_up(workloads, workload, seed)
    loop = Loop()
    index = 0
    while True:
        for call in calls:
            loop.run(call)
        index += 1
        if loop.busy >= seconds:
            break
        calls, more = workloads.make_pass(workload, seed, index)
        skipped += more
    lat = sorted(s for _, s, _ in loop.samples)
    n, failed = len(lat), loop.failed
    tail_p, tail_s = tail(lat)
    wall = {
        "setup_s": statistics.median(setup),
        "calls_per_s": n / loop.busy,
        "call_p50_ms": 1000 * statistics.median(lat),
        "call_tail_ms": 1000 * tail_s,
    }
    scale = loop.scale
    metrics = {
        "setup_s": (wall["setup_s"] * setup_scale, "s"),
        "calls_per_s": (wall["calls_per_s"] / scale, "1/s"),
        "call_p50_ms": (wall["call_p50_ms"] * scale, "ms"),
        "call_tail_ms": (wall["call_tail_ms"] * scale, "ms"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print(f"{workload}: seed {seed}, {index} passes, {n} timed calls in {loop.busy:.2f} s")
    print(f"  setup_s samples (wall): {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"  reference median {1000 * statistics.median(loop.refs):.3f} ms over "
          f"{len(loop.refs)} samples, {1000 * statistics.median(setup_refs):.3f} ms "
          f"around set-up (nominal {1000 * REF_NOMINAL_S:g} ms)")
    for name, (value, unit) in metrics.items():
        raw = f"  (wall {wall[name]:.6g})" if name in wall else ""
        print(f"  {name:<14} {value:.6g} {unit}{raw}")
    print(f"  failed_ratio   {failed / n:.6g} ({failed} of {n})")
    print(f"  call_tail_ms is p{tail_p:g} of {n} calls")
    by_label = {}
    for label, s, _ in loop.samples:
        by_label.setdefault(label, []).append(s)
    # wall times; the slowest call of each class shows a stall too short for the tail
    for label, values in by_label.items():
        print(f"  {label:<28} n={len(values):<5} median "
              f"{1000 * statistics.median(values):9.2f} ms  max {1000 * max(values):9.2f} ms")
    extra = {"passes": index, "tail_percentile": tail_p, "samples": n,
             "skipped_inputs": skipped, "max_ms": 1000 * lat[-1],
             "wall": wall, "time_scale": scale, "setup_time_scale": setup_scale}
    return metrics, n, failed, warm_ok, digest, extra


def run_traced(workloads, spans, workload, seed, passes=None):
    passes = TRACE_PASSES[workload] if passes is None else passes
    calls0, _ = workloads.make_pass(workload, seed, 0)
    digest = workloads.input_digest(calls0)
    warm_ok = warm_up(workloads, workload, seed)
    tracer = spans.Tracer()
    plain, traced = Loop(), Loop()
    for index in range(passes):
        calls = calls0 if index == 0 else workloads.make_pass(workload, seed, index)[0]
        # alternate which run goes first, so neither always finds warm caches
        for with_spans in (False, True) if index % 2 == 0 else (True, False):
            if not with_spans:
                for call in calls:
                    plain.run(call)
                continue
            with tracer:
                for call in calls:
                    traced.run(call)
    left = spans.leftover_wrappers()
    if left:
        raise RuntimeError(f"span wrappers left bound after the run: {left}")
    metrics = {}
    for module, func in spans.TRACED:
        name = f"{module}.{func}"
        calls, self_s, failed = tracer.stats[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (1000 * self_s, "ms")
        metrics[f"{name}.failed"] = (failed, "count")
    returned, kept = tracer.intertwiners
    metrics["quantize.exact_kept_ratio"] = (kept / returned if returned else 1.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced.busy / plain.busy, "ratio")
    self_total = sum(s for _, s, _ in tracer.stats.values())
    print(f"{workload}: seed {seed}, {passes} passes run plain and traced")
    print(f"  plain {plain.busy:.3f} s, traced {traced.busy:.3f} s, "
          f"self time of traced functions {self_total:.3f} s")
    ranked = sorted(tracer.stats.items(), key=lambda kv: -kv[1][1])
    for name, (calls, self_s, failed) in ranked:
        if calls:
            share = self_s / traced.busy
            print(f"  {name:<40} calls {calls:<8} self {1000 * self_s:10.2f} ms "
                  f"({100 * share:5.1f}% of traced) failed {failed}")
    n = len(plain.samples) + len(traced.samples)
    failed = plain.failed + traced.failed
    extra = {"passes": passes, "self_s_total": self_total,
             "traced_s": traced.busy, "plain_s": plain.busy}
    return metrics, n, failed, warm_ok, digest, extra


# ---------------------------------------------------------------------------
# provenance


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def provenance(torusquant, workload, seed, digest, extra):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    files = sorted(SRC.rglob("*.py"))
    src_hash = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "input_digest": digest,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "torusquant_file": torusquant.__file__,
        "src_py_files": len(files),
        "src_lines": lines,
        "src_sha256": src_hash.hexdigest(),
        **extra,
    }


# ---------------------------------------------------------------------------
# entry points


def run_all(args):
    """Each workload in a child process; prints a table of every metric."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        results[workload] = json.loads(lines[-1])
    print()
    print(f"{'workload':<10} {'metric':<44} {'value':>14} unit")
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{workload:<10} {name:<44} {m['value']:>14.6g} {m['unit']}")
        ratio = res["failed"] / res["attempted"]
        print(f"{workload:<10} {'failed_ratio':<44} {ratio:>14.6g} ratio")
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit (set-up timing)")
    args = parser.parse_args(argv)

    torusquant = _load_package()
    if args.workload == "all":
        return run_all(args)

    import spans
    import workloads

    if args.setup_only:
        workloads.make_pass(args.workload, args.seed, 0)
        print(time.monotonic())
        return 0
    if args.trace:
        result = run_traced(workloads, spans, args.workload, args.seed)
    else:
        result = run_plain(workloads, args.workload, args.seed, args.seconds)
    metrics, attempted, failed, warm_ok, digest, extra = result
    record = provenance(torusquant, args.workload, args.seed, digest, extra)
    print("provenance " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and warm_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
