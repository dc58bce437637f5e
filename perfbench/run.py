"""Benchmark of orthograph's decisions, paths and graph builds.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see README.md in this
directory): decide, paths, graph-augment, graph-build.  The program is used
from ``src/`` as it stands; nothing is built.

The run starts the worker process several times only to time set-up
(interpreter start until ``orthograph.cli`` is imported and the first pass
of inputs exists), then once more for the measured closed loop.  Times are
scaled to a reference host speed (see ``REFERENCE_S``).  BLAS is
pinned to one thread in every process.  The last line of standard output is
the result object; the line before it holds the details (environment,
failures, percentile sample counts, graph digests).
"""

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 3  # worker start-ups timed per run, besides the measured one
START_LIMIT_S = 60.0
# Time the measured worker may take beyond 3 x --seconds: the timed section,
# the checks (which take less time than the ops they check) and a traced
# run's fixed passes (about 7 s of untraced work, run twice) all fit.
RUN_MARGIN_S = 60.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Tail percentile per workload: one that leaves at least ten samples beyond
# it at the run length BENCHMARK.json sets, also on a slow host.  Fixed, so
# that a faster program is compared at the same percentile; the details line
# reports the sample count and how many lie beyond.
TAIL_PERCENTILE = {"decide": 95, "paths": 95, "graph-augment": 75, "graph-build": 65}
# Reported times are scaled to a host speed at which the worker's reference
# kernel takes this long (its median on the 2-vCPU machine the bounds were set
# on): each pass's times are multiplied by REFERENCE_S / (the kernel's time
# right after that pass), and each set-up time by REFERENCE_S / (the kernel's
# median time right after that set-up).  The shared host drifts in speed by a
# quarter and more between runs minutes apart, and the kernel drifts with it;
# the unscaled times are on the details line.
REFERENCE_S = 0.015


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("ORTHOGRAPH_CONFIG", None)  # the CLI would read its tolerances and flags
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, setup_only: bool):
    """Start a worker and wait for its ``ready`` line; returns (process,
    seconds from launch to ready)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    started, _, _ = select.select([proc.stdout], [], [], START_LIMIT_S)
    line = proc.stdout.readline() if started else ""
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(1, math.ceil(q * len(xs) / 100)) - 1]


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository (git
    would otherwise search the parent directories)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "orthograph", "__init__.py")):
        return fail("src/orthograph not found; run from the root of an orthograph checkout")
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    os.makedirs(OUT, exist_ok=True)
    limit_s = 3 * args.seconds + RUN_MARGIN_S

    setup, setup_unscaled = [], []
    try:
        for _ in range(SETUP_SAMPLES):
            proc, ready = start_worker(args, setup_only=True)
            out, _ = proc.communicate(timeout=START_LIMIT_S)
            if proc.returncode != 0:
                return fail(f"set-up worker exited with {proc.returncode}")
            ref = json.loads(out.strip().splitlines()[-1])["reference_times_s"]
            setup_unscaled.append(ready)
            setup.append(ready * REFERENCE_S / statistics.median(ref))
        proc, _ = start_worker(args, setup_only=False)
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return fail("worker ran past the time limit")
    except RuntimeError as exc:
        return fail(str(exc))
    if proc.returncode != 0:
        return fail(f"worker exited with {proc.returncode}")
    raw = out.strip().splitlines()[-1]
    with open(os.path.join(OUT, args.workload, f"worker-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        fh.write(raw)
    res = json.loads(raw)

    op_times, pass_times = res["op_times_s"], res["pass_times_s"]
    q = TAIL_PERCENTILE[args.workload]
    speed = {}
    if not args.trace:
        ref = res["reference_times_s"]
        speed = {"reference_median_s": statistics.median(ref),
                 "unscaled": {"wall_s": statistics.fmean(pass_times),
                              "op_p50_ms": statistics.median(op_times) * 1e3,
                              "op_tail_ms": percentile(op_times, q) * 1e3}}
        scale = [REFERENCE_S / r for r in ref]
        op_scale = [f for f, n in zip(scale, res["pass_sizes"]) for _ in range(n)]
        op_times = [t * f for t, f in zip(op_times, op_scale)]
        pass_times = [t * f for t, f in zip(pass_times, scale)]
    tail_s = percentile(op_times, q)
    env = res["details"].pop("environment")
    env.update({"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "seed": args.seed})
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_frac": res["failed"] / res["attempted"],
        "indeterminate_frac": (res["details"]["indeterminate"] / res["details"]["decisions"]
                               if res["details"]["decisions"] else 0.0),
        "op_tail_percentile": q,
        "op_percentiles_ms": {str(k): percentile(op_times, k) * 1e3 for k in (50, 75, 90, 95, 99)},
        "op_samples": len(op_times),
        "op_samples_beyond_tail": sum(1 for t in op_times if t > tail_s),
        "passes": len(pass_times),
        **speed,
        "setup_samples_s": setup,
        "setup_samples_unscaled_s": setup_unscaled,
        "check_s": res["check_s"],
        "failures": res["failures"],
        **res["details"],
    }
    print(json.dumps(details, sort_keys=True))

    if args.trace:
        values = dict(res["layer"])
        values["failed_frac"] = details["failed_frac"]
        values["indeterminate_frac"] = details["indeterminate_frac"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.fmean(pass_times),
            "op_p50_ms": statistics.median(op_times) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        # a function or counter renamed away must not read as zero work
        return fail(f"no value for metrics {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
