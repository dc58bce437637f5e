"""One benchmark process: import the package, generate inputs, run the timed
closed loop and check every output, each pass right after it ran.  Started
by ``run.py``, which times this process's start-up and prints the result
line.

Untraced mode runs passes until their op times add up to ``--seconds`` and
times a fixed reference kernel after each pass (see ``Reference``).  Traced
mode runs a fixed number of passes twice, untraced and then traced, so that
its counts repeat exactly and the two wall times give the tracing overhead.
Both then run the workload's float-range probe, untimed.

Prints ``ready`` once set-up is done, then one JSON line with the results.
With ``--setup-only`` that line holds only the reference kernel's times
right after set-up.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import orthograph  # noqa: E402
import orthograph.cli  # noqa: E402,F401

import workloads  # noqa: E402


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return int(getattr(handle, fn)())
    return None


def environment():
    import numpy
    import scipy

    info = {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": _blas_threads()}
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info.update({v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    return info


class Tally:
    """Check results, merged pass by pass.  Each pass's records are checked
    right after the pass, outside the timed section, and then dropped, so the
    process holds one pass of outputs at a time whatever the pass count."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.messages: set[str] = set()
        self.details: dict = {}
        self.check_s = 0.0

    def add(self, records):
        t0 = time.perf_counter()
        fails, details = self.wl.check(records)
        self.attempted += len(records)
        self.failed += len(fails)
        self.messages.update(fails.values())
        _merge(self.details, details)
        self.check_s += time.perf_counter() - t0

    def finish(self):
        """Run the checks a workload defers to the end of the run."""
        t0 = time.perf_counter()
        if hasattr(self.wl, "finish"):
            fails, details = self.wl.finish()
            self.failed += len(fails)
            self.messages.update(fails)
            _merge(self.details, details)
        self.check_s += time.perf_counter() - t0


def _merge(total, part):
    """Add ``part`` into ``total``: numbers are summed, lists extended and
    dicts merged key by key."""
    for key, value in part.items():
        if isinstance(value, dict):
            _merge(total.setdefault(key, {}), value)
        elif isinstance(value, list):
            total.setdefault(key, []).extend(value)
        else:
            total[key] = total.get(key, 0) + value


SETUP_REFERENCE_RUNS = 5  # reference kernel runs after a --setup-only start


class Reference:
    """A fixed piece of benchmark-owned work, timed after every pass.

    The shared host this benchmark runs on changes speed by a quarter and
    more over tens of seconds, in step for all code that, like the package,
    spends its time in small dense LAPACK calls, numpy and Python-level
    scipy.optimize loops.  The kernel does the same kinds of work on fixed
    inputs, so its time tracks the host's speed and not the program's:
    ``run.py`` scales the run's times by it.  It does not call the package,
    so a change to the program leaves it unchanged.
    """

    REPEATS = 5

    def __init__(self):
        import scipy.optimize

        rng = np.random.default_rng(0)
        self.minimize = scipy.optimize.minimize
        self.mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (3, 4, 8)]
        self.times: list[float] = []

    @staticmethod
    def _objective(x):
        return float(np.sum((x - 0.3) ** 2) + np.sin(x).sum() ** 2)

    def run(self):
        # A garbage collection inside the timed section would scan the
        # program's heap, whose size the workload sets, so collect first and
        # keep the collector off while timing.
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        for _ in range(self.REPEATS):
            for m in self.mats:
                np.linalg.svd(m)
                np.linalg.eigh(m + m.conj().T)
                np.linalg.qr(m)
            self.minimize(self._objective, np.zeros(6), method="Nelder-Mead", options={"maxiter": 60})
        self.times.append(time.perf_counter() - t0)
        gc.enable()


def run_ops(wl, ops, op_times=None, tracer=None):
    """Run ops back to back, appending each op's time to ``op_times`` if
    given; returns (records, summed op time)."""
    collect = getattr(wl, "collect", None)
    records = []
    total = 0.0
    clock = time.perf_counter
    for n, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = tracer.ops_started + n
        t0 = clock()
        try:
            result, err = op.call(), None
        except Exception as exc:  # a raising op is a counted failure, not a crash
            result, err = None, exc
        dt = clock() - t0
        if collect is not None and err is None:
            result = collect(op, result)
        total += dt
        if op_times is not None:
            op_times.append(dt)
        records.append((op, result, err))
    if tracer is not None:
        tracer.ops_started += len(ops)
    return records, total


def timed_run(wl, first, seconds, tally, ref):
    """Run passes until their summed op time reaches ``seconds``, timing the
    reference kernel after each.  Returns op times, pass times and the
    number of ops in each pass."""
    op_times, pass_times, pass_sizes = [], [], []
    p, ops = 0, first
    while True:
        records, t = run_ops(wl, ops, op_times)
        pass_times.append(t)
        pass_sizes.append(len(ops))
        ref.run()
        tally.add(records)
        if sum(pass_times) >= seconds:
            return op_times, pass_times, pass_sizes
        p += 1
        ops = wl.make_pass(p)


def float_range_probe(wl):
    """Run and check the workload's float-range probe, untimed.  Returns
    (attempted, failed, failure messages); all zero for a workload without
    one."""
    if not hasattr(wl, "make_probe"):
        return 0, 0, []
    records, _ = run_ops(wl, wl.make_probe())
    fails, _ = wl.check(records)
    return len(records), len(fails), sorted(set(fails.values()))


def traced_run(wl, first, out_dir, tally):
    """Each pass runs untraced and traced back to back, alternating which
    goes first, so that both wall times see the same machine phases."""
    from tracing import Tracer

    tracer = Tracer()
    op_times = []

    def traced(ops):
        tracer.install(orthograph)
        try:
            records, t = run_ops(wl, ops, op_times, tracer)
        finally:
            tracer.uninstall()
        tally.add(records)
        return t

    plain_wall = traced_wall = 0.0
    for p in range(wl.trace_passes):
        ops = first if p == 0 else wl.make_pass(p)
        if p % 2:
            traced_wall += traced(ops)
            plain_wall += run_ops(wl, ops)[1]
        else:
            plain_wall += run_ops(wl, ops)[1]
            traced_wall += traced(ops)
    layer = tracer.summary()
    layer["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    tracer.save(os.path.join(out_dir, f"spans-{wl.name}.npz"))
    return op_times, [traced_wall / wl.trace_passes], layer


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # the float-range slice overflows on purpose; its failures are counted
    warnings.simplefilter("ignore", RuntimeWarning)
    out_dir = os.path.join(args.out, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    wl = workloads.make(args.workload, orthograph, args.seed, out_dir)
    first = wl.make_pass(0)
    print("ready", flush=True)
    ref = Reference()
    ref.run()  # the first call pays the lazy set-up of numpy.linalg and scipy.optimize
    ref.times.clear()
    if args.setup_only:
        # the host's speed just after set-up, to scale the set-up time by
        for _ in range(SETUP_REFERENCE_RUNS):
            ref.run()
        print(json.dumps({"reference_times_s": ref.times}), flush=True)
        return 0

    layer = pass_sizes = None
    tally = Tally(wl)
    if args.trace:
        op_times, pass_times, layer = traced_run(wl, first, out_dir, tally)
    else:
        op_times, pass_times, pass_sizes = timed_run(wl, first, args.seconds, tally, ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.finish()
    details = tally.details
    details["environment"] = environment()
    probe_attempted, probe_failed, probe_messages = float_range_probe(wl)
    details["float_range_probe"] = {"attempted": probe_attempted, "failed": probe_failed,
                                    "failures": probe_messages}
    if layer is not None:
        layer["float_range.failed"] = probe_failed

    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": sorted(tally.messages)[:40],
        "op_times_s": op_times,
        "pass_sizes": pass_sizes,
        "pass_times_s": pass_times,
        "reference_times_s": ref.times,
        "peak_rss_mb": peak_rss_mb,
        "check_s": tally.check_s,
        "details": details,
        "layer": layer,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
