"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload seg-augment --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The run sets up the workload several times (``setup_s`` is their
median), then repeats the timed stages until ``--seconds`` have passed and
reports the median of each stage time. Every time is wall time scaled to the
reference speed of ``tracing.SpeedProbe``, read just before and after each
stage. With ``--trace 0`` the result holds the end-to-end metrics, which every
workload reports: ``setup_s``, ``run_s`` and ``peak_rss_mb``. With ``--trace 1``
the repetitions alternate between untraced and traced; the per-layer metrics
come from the traced ones, and the ``stage.*`` and ``quality.*`` metrics from
the untraced ones. The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# a closed loop with one client: BLAS gets one thread, and nothing else
# in the pipeline starts threads or processes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = 1

SETUP_REPEATS = {"seg-augment": 3, "det-attack": 2, "dataset-io": 25}
MIN_REPS = 3
WARMUP_S = 10.0
HELD_OUT_SEED = 20231

# per-layer metrics that come from the untraced repetitions: stage times and
# the workload's quality outputs, 0 on a workload that has no such stage or
# output
STAGE = "stage."
QUALITY = "quality."


def load_spec(path: Path = ROOT / "BENCHMARK.json") -> dict:
    """Metric names and units, from the benchmark definition at the root."""
    if not path.is_file():
        raise SystemExit(f"perfbench: no benchmark definition at {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def _blas_info():
    import ctypes
    import numpy as np

    info = {"library": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment() -> dict:
    import platform

    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_settings": {k: os.environ.get(k) for k in THREAD_VARS},
        "held_out_seed": HELD_OUT_SEED,
    }


def _import_package():
    src = ROOT / "src"
    if not (src / "advfield" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no advfield sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import advfield

    if Path(advfield.__file__).resolve().parent != (src / "advfield").resolve():
        raise SystemExit(f"perfbench: advfield imported from {advfield.__file__}, "
                         f"not from {src}")


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(workload, seed: int, seconds: float, trace: bool, layer_names=(),
            min_reps: int = MIN_REPS,
            setup_repeats: int | None = None, warmup_s: float = WARMUP_S,
            workdir: Path | None = None) -> dict:
    """Run one workload; returns metrics, operation counts and the trace.

    With ``trace`` the per-layer metrics named in ``layer_names`` are computed.
    """
    import contextlib
    import gc
    import shutil
    from collections import defaultdict

    import tracing
    from workloads import Ops, StageFailure

    ops = Ops()
    speed = tracing.SpeedProbe()
    if trace:
        # untraced and traced repetitions alternate; two of each at least
        min_reps = max(min_reps, 4)
    traced_names = [n for n in layer_names if not n.startswith((STAGE, QUALITY))]
    workdir = workdir or OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    result = {"failures": ops.failures}
    started = time.perf_counter()
    try:
        setup_s = []
        repeats = 1 if trace else (setup_repeats or SETUP_REPEATS[workload.name])
        for _ in range(repeats):
            setup_tracer = tracing.Tracer(speed)
            with (tracing.installed(setup_tracer) if trace else contextlib.nullcontext()), \
                    setup_tracer.stage("setup"):
                state = workload.setup(seed, ops)
            setup_s.append(setup_tracer.stage_seconds()["setup"])
        workload.check_setup(state, ops, workdir)

        reps, digests, layer, speeds = [], [], [], []
        begin = None
        while begin is None or len(reps) < min_reps or time.perf_counter() - begin < seconds:
            # repetitions that start before WARMUP_S of load are checked but
            # not timed: the machine runs them measurably slower
            warm = time.perf_counter() - started >= warmup_s
            if begin is None and warm:
                begin = time.perf_counter()
            traced = trace and len(reps) % 2 == 1
            tracer = tracing.Tracer(speed)
            rep_dir = workdir / f"rep-{len(digests)}"
            rep_dir.mkdir()
            if traced:
                with tracing.installed(tracer):
                    out = workload.run(state, tracer, ops, rep_dir)
            else:
                out = workload.run(state, tracer, ops, rep_dir)
            workload.check(state, out, ops, rep_dir)
            shutil.rmtree(rep_dir)
            if warm:
                reps.append((traced, tracer.stage_seconds()))
                speeds.append([span.scale for span in tracer.spans if span.layer == "bench"])
            digests.append(workload.digest(state, out))
            ops.check("repetition output identical to the first", digests[-1] == digests[0],
                      f"{digests[-1]} != {digests[0]}")
            if traced and warm:
                spans = setup_tracer.spans + tracer.spans
                counters = defaultdict(float, setup_tracer.counters)
                for key, value in tracer.counters.items():
                    counters[key] += value
                layer.append((tracing.layer_metrics(spans, counters, traced_names),
                              spans))
            quality = out["quality"]
            # drop this repetition's outputs before the next one allocates
            del out
            gc.collect()
    except StageFailure:
        result.update(ok=False, attempted=ops.attempted, failed=ops.failed)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [s for t, s in reps if not t]
    stages = {k: _median([s[k] for s in untraced]) for k in untraced[0]}
    metrics = {"setup_s": _median(setup_s),
               "run_s": _median([sum(s.values()) for s in untraced]),
               "peak_rss_mb": _peak_rss_mb()}
    result.update(ok=True, attempted=ops.attempted, failed=ops.failed,
                  correct=ops.checks_failed == 0, metrics=metrics, stages=stages,
                  quality=quality, digest=digests[0], reps=reps, speeds=speeds,
                  setup_runs=setup_s)
    if trace:
        traced_runs = [sum(s.values()) for t, s in reps if t]
        per_layer = {k: _median([values[k] for values, _ in layer])
                     for k in layer[0][0]}
        per_layer[tracing.OVERHEAD] = _median(traced_runs) - metrics["run_s"]
        for name in layer_names:
            if name.startswith(STAGE):
                per_layer[name] = stages.get(name[len(STAGE):-len(".s")], 0.0)
            elif name.startswith(QUALITY):
                per_layer[name] = quality.get(name[len(QUALITY):], 0.0)
        result.update(per_layer=per_layer, spans=layer[0][1],
                      self_times=tracing.self_time_table(layer[0][1]))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    spec = load_spec()
    _import_package()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    layer_names = [m["name"] for m in spec["per_layer"]]

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    workload = WORKLOADS[args.workload]()
    result = measure(workload, args.seed, args.seconds, bool(args.trace), layer_names)
    for failure, count in Counter(result["failures"]).items():
        print(f"failed {count}x: {failure}", flush=True)
    if not result["ok"]:
        print("perfbench: a timed stage failed; no result", file=sys.stderr)
        return 1

    print(f"digest {result['digest']}", flush=True)
    print("setup runs " + " ".join(f"{s:.3f}" for s in result["setup_runs"])
          + "  reps " + " ".join(f"{sum(s.values()):.3f}{'t' if t else ''}"
                                 for t, s in result["reps"])
          + "  speed " + " ".join(f"{min(s):.2f}-{max(s):.2f}" for s in result["speeds"]),
          flush=True)
    print("stages " + json.dumps(result["stages"]) + "  quality "
          + json.dumps(result["quality"]), flush=True)
    if args.trace:
        values, listed = result["per_layer"], spec["per_layer"]
        print(f"{'stage':<10} {'span':<36} {'calls':>7} {'self s':>9} {'share':>7}")
        for stage, name, calls, self_s, share in result["self_times"]:
            print(f"{stage:<10} {name:<36} {calls:>7} {self_s:>9.4f} {share:>7.1%}")
    else:
        values, listed = result["metrics"], spec["end_to_end"]
    # every workload reports every metric the definition lists, and only those
    if set(values) != {m["name"] for m in listed}:
        print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "digest": result["digest"],
              "reps": result["reps"], "speeds": result["speeds"],
              "setup_runs": result["setup_runs"], "stages": result["stages"],
              "quality": result["quality"],
              "failures": result["failures"], "metrics": metrics}
    if args.trace:
        record["spans"] = tracing.span_records(result["spans"])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
