"""Inputs, operations and output checks of the four benchmark workloads.

Every workload is an endless sequence of passes.  Pass ``p`` of seed ``s`` is
generated from ``numpy.random.default_rng([s, p])`` alone, so a seed fixes
the inputs; the program receives only the generated elements or CLI
arguments.  One pass covers the workload's whole mix once.

Operations run one at a time (one caller, closed loop).  Each returns
whatever the program returned; the checks run after the timed section.
A traced run makes a fixed ``trace_passes`` passes, so that its counts repeat
exactly; each workload's count is about 7 s of untraced work on a 2-core
2.1 GHz machine.
"""

import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial

import numpy as np

# Scaling exponents of the float-range slices.  The timed mix scales by
# 10^±50 and 10^±150, which the package handles.  10^±160 and 10^±300 break it
# today: 10^-160, 10^160 and 10^300 make mutual_strong raise and 10^-300 flips
# a determinate verdict, so they run in a fixed probe outside the timed
# section whose failures are reported on their own (see ``make_probe``).
SCALE_EXPONENTS = (50, -50, 150, -150)
PROBE_EXPONENTS = (160, -160, 300, -300)
PROBE_SEED = 1_000_000  # second rng key of the probe's inputs, past any pass
PERTURBATIONS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
CERT_EVERY = 4  # one call in four asks for certificates

DECIDE_SHAPES = ((3,), (4,), (2, 3), (4, 5), (8, 8, 8, 8))
DECIDE_KINDS = ("deficient", "projection", "witness", "near", "range_orth", "plain", "scaled")
CONNECT_SHAPES = ((3,), (4,), (2, 3), (8, 8, 8, 8))
DIRECT_SUM_SHAPES = ((2, 3), (4, 5))

# Graph sizes.  A build's time is spent mostly on the few pairs that reach the
# minimizer, so it varies widely from one random graph to the next, and a
# run's median and tail command times vary with the seed as much as the graphs
# do.  Per pair decided, that variation is more than twice as large on [4,5]
# as on [8,8,8,8]: a [4,5] build at 6 samples (15 pairs) varies by 0.47 of its
# mean time, an [8,8,8,8] build at 4 (6 pairs) by 0.37.  Mixed in one run, the
# two also put the median between two clusters of command times.  So
# graph-build runs [8,8,8,8] alone, the larger blocks; [4,5] is decided in
# `decide` and connected in `paths`.  At 4 samples a command takes about
# 0.55 s on a 2.1 GHz core, which leaves over 30 commands in a 20-s run.
AUGMENT_JOBS = (("3", 6),)
BUILD_JOBS = (("8,8,8,8", 4),)

ORACLE_PER_SHAPE = 1  # brute-force comparisons per shape and run


@dataclass
class Op:
    """One timed call.  ``kind`` is the slice it belongs to; ``meta`` holds
    what the checks need (operands, shape, expectations)."""

    kind: str
    shape: tuple
    call: object
    meta: dict = field(default_factory=dict)
    scaled: bool = False


# -- element generation (plain numpy) -----------------------------------------


def _ginibre(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _haar(rng, n):
    q, r = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _deficient_blocks(rng, shape):
    """Gaussian blocks with a one-dimensional kernel in one random block."""
    k = int(rng.integers(len(shape)))
    blocks = []
    for i, n in enumerate(shape):
        if i == k:
            r = n - 1
            left = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            right = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            blocks.append(left @ right.conj().T)
        else:
            blocks.append(_ginibre(rng, n))
    return blocks


def _projection_blocks(rng, shape, rank):
    """Rank-``rank`` projection inside one random block, zero elsewhere."""
    fits = [i for i, n in enumerate(shape) if n >= rank]
    k = fits[int(rng.integers(len(fits)))]
    blocks = [np.zeros((n, n), dtype=complex) for n in shape]
    u = _haar(rng, shape[k])[:, :rank]
    blocks[k] = u @ u.conj().T
    return blocks


def _witness_blocks(blocks):
    """(1 - a a* / ||a||^2)^(1/2), the constructive neighbour of a."""
    na = max(np.linalg.norm(b, 2) for b in blocks)
    out = []
    for b in blocks:
        g = np.eye(b.shape[0]) - (b @ b.conj().T) / (na * na)
        w, u = np.linalg.eigh(0.5 * (g + g.conj().T))
        out.append((u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T)
    return out


def _range_orthogonal_blocks(rng, shape):
    """a, b with b* a = 0 blockwise, so both strong directions are vacuous."""
    left, right = [], []
    for n in shape:
        u = _haar(rng, n)
        r = int(rng.integers(1, n)) if n > 1 else 1
        left.append(u[:, :r] @ _ginibre(rng, n)[:r, :])
        right.append(u[:, r:] @ _ginibre(rng, n)[r:, :] if r < n else np.zeros((n, n), complex))
    return left, right


# -- workloads -----------------------------------------------------------------


class Decide:
    """Pairwise decisions over five shapes and seven pair kinds."""

    name = "decide"
    trace_passes = 12

    def __init__(self, orth, seed):
        self.orth = orth
        self.seed = seed
        self.oracle_left = {shape: ORACLE_PER_SHAPE for shape in DECIDE_SHAPES}
        self.oracle_queue = []

    def make_pass(self, p):
        orth = self.orth
        rng = np.random.default_rng([self.seed, p])
        ops = []
        for si, shape in enumerate(DECIDE_SHAPES):
            for ki, kind in enumerate(DECIDE_KINDS):
                cert = (p + si + ki) % CERT_EVERY == 0
                el = partial(orth.Element, list(shape))
                a_blocks = _deficient_blocks(rng, shape)
                meta = {"cert": cert}
                if kind == "deficient":
                    a, b = el(a_blocks), el(_deficient_blocks(rng, shape))
                elif kind == "projection":
                    a, b = el(a_blocks), el(_projection_blocks(rng, shape, 1))
                elif kind == "witness":
                    a, b = el(a_blocks), el(_witness_blocks(a_blocks))
                    meta["expect_adjacent"] = True
                elif kind == "near":
                    eps = PERTURBATIONS[(p * len(DECIDE_SHAPES) + si) % len(PERTURBATIONS)]
                    w = _witness_blocks(a_blocks)
                    noise = [_ginibre(rng, n) for n in shape]
                    scale = eps / max(np.linalg.norm(g, 2) for g in noise)
                    a, b = el(a_blocks), el([x + scale * g for x, g in zip(w, noise)])
                    meta["eps"] = eps
                elif kind == "range_orth":
                    left, right = _range_orthogonal_blocks(rng, shape)
                    a, b = el(left), el(right)
                    meta["expect_adjacent"] = True
                elif kind == "plain":
                    rank = 2 if max(shape) >= 2 else 1
                    a, b = el(_projection_blocks(rng, shape, rank)), el([_ginibre(rng, n) for n in shape])
                    ops.append(Op(kind, shape, lambda a=a, b=b, c=cert: orth.bj_orthogonal(a, b, want_certificate=c),
                                  {**meta, "a": a, "b": b, "plain": True}))
                    continue
                else:  # scaled
                    k = SCALE_EXPONENTS[(p * len(DECIDE_SHAPES) + si) % len(SCALE_EXPONENTS)]
                    ops.append(self._scaled(rng, shape, a_blocks, k, cert, first=(p + si) % 2 == 0))
                    continue
                ops.append(Op(kind, shape, lambda a=a, b=b, c=cert: orth.mutual_strong(a, b, want_certificate=c),
                              {**meta, "a": a, "b": b}))
        return ops

    def _scaled(self, rng, shape, a_blocks, k, cert, first):
        """mutual_strong on a deficient pair with one operand scaled by 10^k;
        the check compares it with the unscaled pair."""
        orth = self.orth
        a, b = orth.Element(list(shape), a_blocks), orth.Element(list(shape), _deficient_blocks(rng, shape))
        s = 10.0 ** k
        sa, sb = (a * s, b) if first else (a, b * s)
        return Op("scaled", shape, lambda a=sa, b=sb, c=cert: orth.mutual_strong(a, b, want_certificate=c),
                  {"cert": cert, "a": sa, "b": sb, "base": (a, b), "exponent": k}, scaled=True)

    def make_probe(self):
        """The float-range probe: each shape scaled by each of
        ``PROBE_EXPONENTS``, on the first and on the second operand."""
        rng = np.random.default_rng([self.seed, PROBE_SEED])
        return [self._scaled(rng, shape, _deficient_blocks(rng, shape), k, False, first)
                for shape in DECIDE_SHAPES for k in PROBE_EXPONENTS for first in (True, False)]

    def check(self, records):
        """Failure messages by op index, and a details dict that counts the
        directional decisions and those in the tie band."""
        orth = self.orth
        tol = orth.DEFAULT_TOLERANCES
        fails: dict[int, str] = {}
        decisions = indeterminate = 0
        for i, (op, result, err) in enumerate(records):
            if err is not None:
                scale = f" 1e{op.meta['exponent']}" if op.scaled else ""
                fails[i] = f"{op.kind}{scale} {list(op.shape)}: raised {type(err).__name__}"
                continue
            a, b = op.meta["a"], op.meta["b"]
            if op.meta.get("plain"):
                pairs = [(result, a, b)]
            else:
                pairs = [(result.forward, a, b @ b.adjoint() @ a), (result.backward, b, a @ a.adjoint() @ b)]
            decisions += len(pairs)
            indeterminate += sum(dec.indeterminate for dec, _, _ in pairs)
            if op.meta["cert"]:
                for dec, x, y in pairs:
                    if not orth.verify_certificate(dec, x, y, tol):
                        fails[i] = f"{op.kind} {list(op.shape)}: certificate failed re-verification"
            if op.meta.get("expect_adjacent") and not result.indeterminate and not result.adjacent:
                fails[i] = f"{op.kind} {list(op.shape)}: expected an edge, got {result.verdicts}"
            if op.scaled:
                base = orth.mutual_strong(*op.meta["base"], want_certificate=op.meta["cert"])
                for got, ref in ((result.forward, base.forward), (result.backward, base.backward)):
                    if not got.indeterminate and not ref.indeterminate and got.verdict != ref.verdict:
                        fails[i] = (f"scaled 1e{op.meta['exponent']} {list(op.shape)}: verdicts "
                                    f"{result.verdicts} vs unscaled {base.verdicts}")
                continue
            if self.oracle_left[op.shape] > 0 and i not in fails:
                for dec, x, y in pairs:
                    if not dec.indeterminate and dec.support_min is not None:
                        self.oracle_queue.append((f"{op.kind} {list(op.shape)}", dec, x, y))
                        self.oracle_left[op.shape] -= 1
                        break
        return fails, {"decisions": decisions, "indeterminate": indeterminate}

    def finish(self):
        """Compare the queued decisions with brute_force_min_lambda.  Run
        after peak_rss_mb is read: the oracle's grid takes more memory than
        the decisions it checks."""
        tol = self.orth.DEFAULT_TOLERANCES
        fails = []
        for label, dec, x, y in self.oracle_queue:
            _, achieved = self.orth.brute_force_min_lambda(x, y, grid_n=200, refine_steps=50)
            if (achieved >= x.norm() * (1.0 - tol.orth)) != dec.verdict:
                fails.append(f"{label}: verdict disagrees with brute_force_min_lambda")
        return fails, {"oracle_comparisons": len(self.oracle_queue)}


class Paths:
    """Path construction: connect, connect_direct_sum and witnesses."""

    name = "paths"
    trace_passes = 36

    def __init__(self, orth, seed):
        self.orth = orth
        self.seed = seed

    def make_pass(self, p):
        orth = self.orth
        rng = np.random.default_rng([self.seed, p])
        ops = []

        def el(shape):
            return orth.Element(list(shape), _deficient_blocks(rng, shape))

        for shape in CONNECT_SHAPES:
            a, b = el(shape), el(shape)
            ops.append(Op("connect", shape, lambda a=a, b=b: orth.connect(a, b), {"a": a, "b": b}))
        for shape in DIRECT_SUM_SHAPES:
            a, b = el(shape), el(shape)
            ops.append(Op("connect_direct_sum", shape,
                          lambda a=a, b=b: orth.connect_direct_sum(a, b, split=1), {"a": a, "b": b}))
        shape = DECIDE_SHAPES[p % len(DECIDE_SHAPES)]
        a = el(shape)
        ops.append(Op("witness", shape, lambda a=a: orth.non_isolated_witness(a), {"a": a}))
        ops.append(self._scaled(rng, SCALE_EXPONENTS[p % len(SCALE_EXPONENTS)]))
        return ops

    def _scaled(self, rng, k):
        """connect on [3] with the first endpoint scaled by 10^k."""
        orth = self.orth
        a, b = (orth.Element([3], _deficient_blocks(rng, (3,))) for _ in range(2))
        sa = a * 10.0 ** k
        return Op("scaled_connect", (3,), lambda a=sa, b=b: orth.connect(a, b),
                  {"a": sa, "b": b, "base": (a, b), "exponent": k}, scaled=True)

    def make_probe(self):
        """The float-range probe: two connects at each of ``PROBE_EXPONENTS``."""
        rng = np.random.default_rng([self.seed, PROBE_SEED])
        return [self._scaled(rng, k) for k in PROBE_EXPONENTS for _ in range(2)]

    @staticmethod
    def length_bound(op):
        if op.kind == "connect" and len(op.shape) == 1 and op.shape[0] >= 4:
            return 3
        if op.kind == "connect_direct_sum" and op.shape == (4, 5):
            return 3
        return 4

    def check(self, records):
        orth = self.orth
        fails: dict[int, str] = {}
        verified = decisions = indeterminate = 0
        lengths: dict[str, list[int]] = {}
        for i, (op, result, err) in enumerate(records):
            label = f"{op.kind} {list(op.shape)}"
            if op.scaled:
                label = f"{op.kind} 1e{op.meta['exponent']} {list(op.shape)}"
            if err is not None:
                fails[i] = f"{label}: raised {type(err).__name__}"
                continue
            if op.kind == "witness":
                chain = (op.meta["a"], result)
            else:
                chain = result.vertices
                lengths.setdefault(label, []).append(result.length)
                decisions += 2 * result.length
                indeterminate += sum(e.forward.indeterminate + e.backward.indeterminate
                                     for e in result.edge_decisions)
                if result.length > self.length_bound(op):
                    fails[i] = f"{label}: length {result.length} over bound {self.length_bound(op)}"
                    continue
                if chain[0] is not op.meta["a"] or chain[-1] is not op.meta["b"]:
                    fails[i] = f"{label}: path does not join its endpoints"
                    continue
            verified += 1
            try:
                orth.verify_path(chain)
            except Exception as exc:  # any raise is a failed re-verification
                fails[i] = f"{label}: verify_path raised {type(exc).__name__}: {exc}"
        hist = {k: {str(n): v.count(n) for n in sorted(set(v))} for k, v in sorted(lengths.items())}
        return fails, {"paths_reverified": verified, "length_histogram": hist,
                       "decisions": decisions, "indeterminate": indeterminate}


class Graph:
    """``orthograph graph`` run in-process through ``orthograph.cli.main``."""

    def __init__(self, orth, seed, out_dir):
        self.orth = orth
        self.seed = seed
        self.out_dir = out_dir

    def make_pass(self, p):
        cli = self.orth.cli
        ops = []
        for shape, n in self.jobs:
            gseed = self.seed * 10_000 + p
            argv = ["graph", "--shape", shape, "--samples", str(n), "--seed", str(gseed),
                    "--out", self.out_dir, "--format", "json"]
            if self.augment:
                argv.append("--augment")

            def call(argv=argv):
                sink = io.StringIO()
                with redirect_stdout(sink), redirect_stderr(sink):
                    rc = cli.main(argv)
                return rc, sink.getvalue()

            ops.append(Op("graph", tuple(int(x) for x in shape.split(",")), call,
                          {"seed": gseed, "samples": n}))
        return ops

    def collect(self, op, result):
        """Untimed: keep the artifact bytes the command just wrote, or None
        when it failed and wrote nothing."""
        if result[0] != 0:
            return result + (None,)
        with open(os.path.join(self.out_dir, "graph.json"), "rb") as fh:
            return result + (fh.read(),)

    def check(self, records):
        orth = self.orth
        fails: dict[int, str] = {}
        digests = []
        added = 0
        indeterminate = pairs = 0
        for i, (op, result, err) in enumerate(records):
            label = f"graph {list(op.shape)} seed {op.meta['seed']}"
            if err is not None:
                fails[i] = f"{label}: raised {type(err).__name__}"
                continue
            rc, _, raw = result
            if rc != 0:
                fails[i] = f"{label}: exit code {rc}"
                continue
            digests.append(f"{list(op.shape)}:{op.meta['seed']}:{hashlib.sha256(raw).hexdigest()}")
            g = orth.graph_from_json(raw.decode())
            n = g.order
            pairs += n * (n - 1) // 2
            indeterminate += len(g.indeterminate_pairs)
            added += n - op.meta["samples"]
            problem = _graph_problem(orth, g, self.augment)
            if problem:
                fails[i] = f"{label}: {problem}"
        details = {"graph_json_sha256": digests, "decisions": pairs, "indeterminate": indeterminate}
        if self.augment:
            details["augment_vertices_added"] = added
        return fails, details


def _graph_problem(orth, g, augmented):
    adj = np.asarray(g.adjacency, dtype=bool)
    if not np.array_equal(adj, adj.T):
        return "adjacency not symmetric"
    if adj.diagonal().any():
        return "self loop"
    invertible = np.array([orth.is_right_invertible(v) for v in g.vertices])
    isolated = ~adj.any(axis=0)
    if np.any(invertible & ~isolated):
        return "right-invertible vertex has a neighbour"
    if not augmented:
        return None
    if np.any(isolated & ~invertible):
        return "non-invertible vertex of degree 0"
    # capped distances by repeated boolean products
    sing = np.nonzero(~invertible)[0]
    reach = np.eye(adj.shape[0], dtype=bool)
    step = reach
    for _ in range(4):
        step = (step.astype(np.int64) @ adj.astype(np.int64)) > 0
        reach |= step
    if not reach[np.ix_(sing, sing)].all():
        return "non-invertible vertices not within distance 4 of each other"
    return None


class GraphAugment(Graph):
    name = "graph-augment"
    jobs = AUGMENT_JOBS
    augment = True
    trace_passes = 18


class GraphBuild(Graph):
    name = "graph-build"
    jobs = BUILD_JOBS
    augment = False
    trace_passes = 12


WORKLOADS = {w.name: w for w in (Decide, Paths, GraphAugment, GraphBuild)}


def make(name, orth, seed, out_dir):
    cls = WORKLOADS[name]
    return cls(orth, seed, out_dir) if issubclass(cls, Graph) else cls(orth, seed)
