"""Benchmark entry point.

    python3 perfbench/run.py --workload {bank,train,score,all} --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ./src.
With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run, whose spans are written under .perfbench/.  ``--workload all``
runs every workload in its own process, one after the other.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads
from tracing import metric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def import_program() -> None:
    """Put ./src first on the path; refuse to run against any other lgpnet."""
    package = ROOT / "src" / "lgpnet"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a checkout")
    sys.path.insert(0, str(package.parent))
    import lgpnet

    if Path(lgpnet.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported lgpnet from {lgpnet.__file__}, expected {package}")


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS the process has loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[Path(path).name] = int(fn())
                break
    return found


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, sizes=workloads.PAPER) -> dict:
    """Set up, measure and check one workload; returns the result object
    plus an "info" entry (machine, inputs, sizes, command times)."""
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[name](work, seed, sizes)
        setup_s = workloads.set_up(wl)
        ops = workloads.measure(wl, seconds)
        tracer = None
        traced_ops = []
        if trace:
            tracer = tracing.Tracer()
            wl.tracer = tracer
            traced_ops = workloads.measure(wl, seconds, count=len(ops))
            wl.tracer = None
        final = wl.final_checks()
        inputs = wl.info()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_ops = ops + traced_ops
    attempted = sum(op.attempted for op in all_ops) + (1 if final is not None else 0)
    failed = sum(op.failed for op in all_ops) + (1 if final else 0)
    problems = [p for op in all_ops for p in op.problems] + list(final or [])
    rate = workloads.rate(ops)
    peak = workloads.peak_rss_mb()
    named = {
        wl.label: metric(rate, f"{wl.unit}/s"),
        f"{name}.peak_rss_mb": metric(peak, "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "throughput": metric(rate, "item/s"),
            "peak_rss_mb": metric(peak, "MB"),
            "setup_s": metric(setup_s, "s"),
        },
    }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "machine": machine(),
        "inputs": inputs,
        "commands": len(ops),
        "command_s": [round(op.seconds, 4) for op in ops],
        "peak_rss_after_inputs_mb": wl.rss_after_inputs,
        "named_metrics": named,
        "problems": problems,
    }
    if trace:
        layer = tracing.per_layer(tracer, len(traced_ops), sizes.train_batch)
        untraced_s = statistics.median(op.seconds for op in ops)
        traced_s = statistics.median(op.seconds for op in traced_ops)
        layer["trace.overhead.command_s"] = metric(traced_s - untraced_s, "s")
        layer["trace.overhead.throughput"] = metric(workloads.rate(traced_ops) - rate, "item/s")
        result["metrics"] = layer
        info["traced_command_s"] = [round(op.seconds, 4) for op in traced_ops]
        info["largest_self_time_s"] = [
            [n, round(s / len(traced_ops), 4)] for n, s in tracing.largest_self_time(tracer)[:8]
        ]
        info["spans"] = str(OUT / f"spans-{name}-seed{seed}.jsonl")
        tracer.write(Path(info["spans"]))
    result["info"] = info
    return result


def print_result(result: dict) -> None:
    info = result.pop("info")
    for problem in info["problems"]:
        print(f"FAILED CHECK: {problem}")
    for name, m in info["named_metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("info " + json.dumps(info))
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload in its own process; prints each one's named metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    setup_total = 0.0
    for name in ("bank", "train", "score"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        for line in lines[:-1]:
            if not line.startswith("info "):
                print(f"[{name}] {line}")
        one = json.loads(lines[-1])
        setup_total += one["metrics"].get("setup_s", {}).get("value", 0.0)
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for key, m in one["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    if not args.trace:
        print(f"setup_s = {setup_total:.6g} s (all workloads)")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["bank", "train", "score", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_program()
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    print_result(run_one(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
