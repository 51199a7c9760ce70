"""closedstring benchmark runner.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json (median op time, peak RSS, set-up
time); with ``--trace 1`` it reports the per-layer metrics, measured by
wrapping the public functions of the traced modules (see tracer.py).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
stamped with the environment, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# Set-up is repeated in this many fresh interpreters; the median is reported.
SETUP_REPEATS = 5
# A run measures at least this many ops, even when they outlast --seconds; each
# half of a traced run at least TRACE_MIN_OPS, so that it ends in time.
MIN_OPS = 3
TRACE_MIN_OPS = 2
# Share of an op's duration spent timing the reference after it.
REF_SHARE = 0.1
THREAD_VARS = ("CLOSEDSTRING_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and set up once, print the seconds taken, exit")
    return ap.parse_args(argv)


def _load_workloads():
    if not os.path.isfile(os.path.join(SRC, "closedstring", "__init__.py")):
        raise SystemExit(f"no closedstring sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    return workloads


def _make(workloads, name):
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; known: {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[name]
    return cls(os.path.join(OUT, "tmp")) if name == "verify_all" else cls()


def _setup_probe(args):
    t0 = time.perf_counter()
    wl = _make(_load_workloads(), args.workload)
    wl.setup(args.seed)
    print(f"{time.perf_counter() - t0!r}")


def _setup_seconds(args):
    """Median of import + input generation over fresh interpreters."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def environment(verify_threads):
    import numpy as np

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "closedstring")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src.update(fname.encode() + fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "verify_threads": verify_threads,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


@functools.lru_cache(maxsize=1)
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return (rng.standard_normal(4096) + 0j, rng.standard_normal((48, 48)),
            1.0 / (1.0 + np.arange(4096)))


def reference_seconds(repeats=1):
    """Mean time of a fixed numpy/Python computation that does not use closedstring.

    On a shared host the same op can run 1.5x slower for minutes at a time,
    and this computation slows down with it; op times are reported in its
    units (see `relative`).  Its speed also changes from one second to the
    next, so it is repeated to cover a share of the op it is compared with.
    """
    import numpy as np

    x, a, w = _reference_inputs()
    t0 = time.perf_counter()
    for _ in range(repeats * 500):
        y = np.fft.ifft(np.fft.fft(x) * w)
        y = np.exp(1j * y.real) - y
        b = a @ a
        acc = 0.0
        for v in b[0]:
            acc += float(v) * 0.5
    return (time.perf_counter() - t0) / repeats


def relative(ops):
    """Median over ops of op time / the reference time around that op."""
    return statistics.median(op["seconds"] / op["ref_s"] for op in ops)


def measure(wl, inputs, seconds, first, runner=None, min_ops=MIN_OPS, repeats=1):
    """Closed loop of ops for `seconds` (at least `min_ops`); checks run untimed.

    The reference computation is timed before every op and after the last,
    each time for about REF_SHARE of the previous op's duration (`repeats`
    reference runs before the first op); an op's `ref_s` is the mean of the
    two timings around it.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    i = first
    ref = reference_seconds(repeats)
    while len(ops) < min_ops or time.perf_counter() < deadline:
        cpu0 = os.times()
        t0 = time.perf_counter()
        try:
            res = runner(lambda: wl.op(inputs, i)) if runner else (wl.op(inputs, i),)
        except Exception:  # a raised error is a failed op, not a crashed benchmark
            traceback.print_exc()
            res = None
        dt = time.perf_counter() - t0
        cpu1 = os.times()
        rec = {"index": i, "seconds": dt,
               "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
               "checks": [], "ok": res is not None, "trace": res[1:] if res else None}
        if res is not None:
            try:
                rec["checks"] = [(nm, float(v), float(tol)) for nm, v, tol in wl.check(inputs, res[0])]
            except Exception:
                traceback.print_exc()
                rec["ok"] = False
            rec["ok"] = rec["ok"] and all(v <= tol for _, v, tol in rec["checks"])
        repeats = max(1, round(REF_SHARE * dt / ref))
        after = reference_seconds(repeats)
        rec["ref_s"] = 0.5 * (ref + after)
        ref = after
        ops.append(rec)
        i += 1
    return ops


def _max_check(ops, name):
    vals = [v for op in ops for nm, v, _ in op["checks"] if nm == name]
    return max(vals) if vals else 0.0


def layer_metrics(plain, traced, mem_op, workers):
    """Per-layer metrics of a traced run, keyed and ordered as metrics.per_layer()."""
    import metrics
    import tracer as tr

    per_op = [tr.aggregate(op["trace"][0]) for op in traced]

    def med(fn):
        return statistics.median(fn(op, a) for op, a in zip(traced, per_op))

    def share(a, layer):
        busy = sum(rec["self_s"] for rec in a.values())
        return sum(rec["self_s"] for nm, rec in a.items() if nm.split(".")[0] == layer) / busy

    def pool_busy(a):
        jobs = sum(a.get(f"verify.{s}", {}).get("wall_s", 0.0) for s in metrics.SUITES)
        return jobs / (a[tr.ROOT]["wall_s"] * workers)

    vals = {}
    for name, field, _ in metrics.SPAN_METRICS:
        span = name[:name.rindex(".")]
        vals[name] = med(lambda op, a: a.get(span, {}).get(field, 0.0))
    vals["ddf.ddf_modes.peak_mib"] = mem_op["trace"][2].get("ddf.ddf_modes", 0.0)
    for layer in tr.LAYERS:
        vals[f"{layer}.self_share"] = med(lambda op, a: share(a, layer))
    for suite in metrics.SUITES:
        for field in ("wall_s", "thread_cpu_s"):
            vals[f"verify.{suite}.{field}"] = med(
                lambda op, a: a.get(f"verify.{suite}", {}).get(field, 0.0))
    vals["verify.pool.busy_ratio"] = med(lambda op, a: pool_busy(a))
    vals["verify.pool.wait_s"] = med(lambda op, a: op["trace"][1].get("verify.pool.wait_s", 0.0))
    vals["process.op_p50_s"] = statistics.median(op["seconds"] for op in plain)
    vals["process.cpu_per_op_s"] = statistics.median(op["cpu_s"] for op in plain)
    for name in metrics.CHECK_METRICS:
        vals[name] = _max_check(plain + traced, name)
    vals["trace.overhead_ratio"] = relative(traced) / relative(plain)
    return {name: (vals[name], unit) for name, unit in metrics.per_layer()}


def run(args):
    workloads = _load_workloads()
    from closedstring import verify

    wl = _make(workloads, args.workload)
    t0 = time.perf_counter()
    inputs = wl.setup(args.seed)
    setup_main = time.perf_counter() - t0
    setup_s, setup_samples = _setup_seconds(args)
    workers = verify.thread_count()
    env = environment(workers)

    warm = measure(wl, inputs, 0.0, 0, min_ops=1)[0]
    repeats = max(1, round(REF_SHARE * warm["seconds"] / warm["ref_s"]))
    if not args.trace:
        ops = measure(wl, inputs, args.seconds, 1, repeats=repeats)
        metrics_out = {
            "op_p50_ref": (relative(ops), "ref"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        import tracer as tr

        plain = measure(wl, inputs, args.seconds / 2, 1, min_ops=TRACE_MIN_OPS, repeats=repeats)
        tracer = tr.Tracer()
        uninstall = tr.install(tracer)
        try:
            traced = measure(wl, inputs, args.seconds / 2, 1 + len(plain), tracer.run_root,
                             min_ops=TRACE_MIN_OPS, repeats=repeats)
            tracer.memory = True
            tracemalloc.start()
            try:
                mem_op = measure(wl, inputs, 0.0, 1 + len(plain) + len(traced),
                                 tracer.run_root, min_ops=1)[0]
            finally:
                tracemalloc.stop()
                tracer.memory = False
        finally:
            uninstall()
        metrics_out = layer_metrics(plain, traced, mem_op, workers)
        ops = plain + traced + [mem_op]

    failed = sum(not op["ok"] for op in ops)
    result = {
        "correct": failed == 0 and warm["ok"],
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics_out.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_digest": inputs["digest"], "environment": env,
        "setup_samples_s": setup_samples, "setup_main_s": setup_main,
        "op_p50_s": statistics.median(op["seconds"] for op in ops),
        "fail_ratio": failed / len(ops),
        "warmup": _op_row(warm),
        "ops": [_op_row(op) for op in ops],
        "result": result,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record


def _op_row(op):
    row = {k: op[k] for k in ("index", "seconds", "ref_s", "cpu_s", "ok", "checks")}
    if op["trace"]:
        spans, counters, peaks = op["trace"]
        row["counters"], row["peaks"] = counters, peaks
        root = min(s.t0 for s in spans)
        row["spans"] = [(s.sid, s.parent, s.name, s.t0 - root, s.t1 - root) for s in spans]
    return row


def main(argv=None):
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    record = run(args)
    result = record["result"]
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"input digest: {record['input_digest']}")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} op_p50_s = {record['op_p50_s']:.6g} s")
    print(f"{args.workload} fail_ratio = {record['fail_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']} ops)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
