#!/usr/bin/env python3
"""loadcast benchmark: timed and traced runs of four workloads.

Usage, from the repository root:

    python3 bench/run_bench.py --workload pretrain --seed 1 --seconds 20 --trace 0
    python3 bench/run_bench.py --workload rich_grid --seed 1 --seconds 20 --trace 1

With --trace 0 the workload is timed with no instrumentation and the last
line of standard output is a JSON object holding the end-to-end metrics.
With --trace 1 one fixed unit of the same work runs untraced and then
traced; the JSON holds the per-layer metrics and the tracing overhead, and
the full span table is written under bench/out/. See bench/README.md.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
SETUP_MAX = 50

#: End-to-end metrics (--trace 0): name -> unit. Every workload reports all
#: of them; what an "item" and an "operation" are depends on the workload.
#: The median latency is printed and stored but is not one of them: on a
#: shared 2-core box it flips between the machine's fast and slow phases
#: (18-27% spread across runs), while the p90 and the rate stay within 10%.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: Op-level forward times that every workload's unit exercises.
COMMON_FWD_OPS = ("matmul", "conv1d_same", "maxpool1d_same", "softmax", "layer_norm",
                  "add", "mul", "concat", "reshape", "transpose")
CALL_OPS = COMMON_FWD_OPS + ("sigmoid", "tanh")

#: Per-layer metrics (--trace 1) in the JSON line: name -> unit. Only
#: counters and times that every workload exercises; times that are zero on
#: some workload are in the printed table and the trace file.
PER_LAYER = {
    **{f"nn.autodiff.{op}.calls": "count" for op in CALL_OPS},
    **{f"nn.autodiff.{op}.fwd_s": "s" for op in COMMON_FWD_OPS},
    "nn.autodiff.fwd_s": "s",
    "nn.autodiff.nodes": "count",
    "nn.adam.calls": "count",
    "transformer.fine_tune_epochs": "count",
    "transformer.forecast_rows": "count",
    "baselines.mlp.steps": "count",
    "baselines.lstm.steps": "count",
    "baselines.trees.best_split_calls": "count",
    "baselines.trees.split_found_ratio": "ratio",
    "baselines.gbt.trees_grown": "count",
    "baselines.gbt.trees_kept": "count",
    "baselines.gbt.kept_ratio": "ratio",
    "baselines.gbt.split_trees": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_ratio": "ratio",
}


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "loadavg_start": os.getloadavg(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_metrics(work, seconds: float, expected: dict | None, setup_times: list[float]):
    import numpy as np

    gc.collect()
    m = work.measure(seconds, expected)
    if not m.latencies_s or m.busy_s <= 0:
        m.problems.append(f"{work.name}: no operation completed")
        m.failed = max(m.failed, 1)
    lat_ms = np.array(m.latencies_s or [float("nan")]) * 1000.0
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": m.items / m.busy_s if m.busy_s > 0 else float("nan"),
        "latency_ms_p90": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "latency_ms_p50": float(np.percentile(lat_ms, 50)),
        "item": work.item,
        "operation": work.op,
        "latency_samples": len(m.latencies_s),
        "items": m.items,
        "busy_s": m.busy_s,
        "setup_samples": len(setup_times),
        "latencies_ms": [x * 1000.0 for x in m.latencies_s],
        "setup_times_s": setup_times,
    }
    return values, m.attempted, m.failed, m.problems, info


def traced_metrics(work, expected_entry: dict | None, setup_tracer):
    import gate
    from tracing import Tracer, layer_metrics

    problems: list[str] = []
    t0 = perf_counter()
    plain = work.unit()
    untraced = perf_counter() - t0
    tracer = Tracer()
    tracer.attach()
    try:
        t0 = perf_counter()
        traced = work.unit()
        traced_s = perf_counter() - t0
    finally:
        tracer.detach()
    if json.dumps(plain, sort_keys=True) != json.dumps(traced, sort_keys=True):
        problems.append(f"{work.name}: traced outputs differ from untraced outputs")
    table = tracer.table()
    layers = layer_metrics(table, tracer.counters)
    layers["trace.untraced_s"] = untraced
    layers["trace.traced_s"] = traced_s
    layers["trace.overhead_ratio"] = traced_s / untraced - 1.0
    counters = {k: layers[k] for k in gate.WORK_COUNTERS}
    counters.update({k: v for k, v in layers.items() if k.startswith("nn.autodiff.") and k.endswith(".calls")})
    counters["nn.autodiff.nodes"] = layers["nn.autodiff.nodes"]
    drift: list[str] = []
    if expected_entry is not None:
        problems += gate.compare_outputs(work.name, traced, expected_entry["outputs"])
        failures, drift = gate.compare_counters(work.name, counters, expected_entry["counters"])
        problems += failures
    setup_layers = layer_metrics(setup_tracer.table(), setup_tracer.counters)
    return {
        "layers": layers,
        "setup_layers": {k: v for k, v in setup_layers.items() if v},
        "table": table,
        "problems": problems,
        "drift": drift,
        "outputs": traced,
        "counters": counters,
        "tracer": tracer,
    }


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny shrinks every workload for the self-tests")
    parser.add_argument("--record", action="store_true",
                        help="store this variant's traced outputs and counters as the reference")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "loadcast", "__init__.py")):
        print(f"error: no loadcast sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import gate
    import workloads
    from tracing import Tracer

    args = parse_args(argv)
    trace = bool(args.trace) or args.record
    variant = args.seed % workloads.VARIANTS
    machine = machine_record()
    reference = {} if args.record else gate.load_reference()
    expected_entry = gate.reference_entry(reference, args.size, args.workload, variant)
    problems: list[str] = []
    if expected_entry is None and not args.record:
        problems.append(f"no reference for size {args.size}, workload {args.workload}, variant {variant}")

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        with warnings.catch_warnings():
            # GBT warns that min_child_samples exceeds the window count at
            # short histories; that is the case1 regime, not a failure.
            warnings.simplefilter("ignore")
            setup_times = []
            setup_tracer = Tracer()
            # Set up at least SETUP_REPEATS times, and more while set-up is
            # cheap, so the median of a millisecond set-up is still steady.
            while not setup_times or (not trace and (
                    len(setup_times) < SETUP_REPEATS
                    or (sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX))):
                work = workloads.make(args.workload, variant, args.size, workdir)
                if trace:
                    setup_tracer.attach()
                t0 = perf_counter()
                try:
                    work.setup()
                finally:
                    setup_times.append(perf_counter() - t0)
                    setup_tracer.detach()
            work.warm_up()
            if trace:
                result = traced_metrics(work, expected_entry, setup_tracer)
                problems += result["problems"]
                attempted, failed = 1, int(bool(problems))
                values = {k: result["layers"][k] for k in PER_LAYER}
                units = PER_LAYER
            else:
                values, attempted, failed, found, info = timed_metrics(
                    work, args.seconds, None if expected_entry is None else expected_entry["outputs"],
                    setup_times)
                problems += found
                failed = max(failed, int(bool(problems)))
                units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["loadavg_end"] = os.getloadavg()

    tag = f"{args.size}-{args.workload}-seed{args.seed}-trace{int(trace)}"
    record = {"workload": args.workload, "seed": args.seed, "variant": variant, "size": args.size,
              "seconds": args.seconds, "machine": machine, "metrics": values, "problems": problems}
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload} (seed {args.seed}, input variant {variant}, size {args.size})")
    if trace:
        record["drift"] = result["drift"]
        record["layers"] = result["layers"]
        record["setup_layers"] = result["setup_layers"]
        record["spans"] = result["table"]
        result["tracer"].dump(os.path.join(OUT_DIR, f"spans-{tag}.npz"))
        for name, value in sorted(result["layers"].items()):
            if value:
                print(f"  {name} = {value:.6g}")
        for name, value in sorted(result["setup_layers"].items()):
            print(f"  setup.{name} = {value:.6g}")
        for line in result["drift"]:
            print(f"  counter drift (not a failure): {line}")
        if args.record:
            gate.record_entry(args.size, args.workload, variant,
                              {"outputs": result["outputs"], "counters": result["counters"]})
            print(f"  recorded reference for variant {variant}")
    else:
        record["info"] = info
        print(f"  item: {info['item']}; operation: {info['operation']}")
        print(f"  samples: {info['latency_samples']} operations, {info['setup_samples']} setups")
        for name, unit in END_TO_END.items():
            print(f"  {name} = {values[name]:.6g} {unit}")
        print(f"  latency_ms_p50 = {info['latency_ms_p50']:.6g} ms (not gated)")
    print(f"  error_ratio = {failed}/{attempted}")
    for line in problems:
        print(f"  FAILED: {line}")
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
