"""Command-line interface.

Subcommands: check, witness, path, graph, verify, gen.  Configuration comes
from flags, then an optional JSON config file (--config or the
ORTHOGRAPH_CONFIG environment variable), then built-in defaults.  All outputs
are deterministic for a fixed seed and config; graph artifacts are written
atomically (temp file + rename).

Exit codes for check: 0 orthogonal (or mutually orthogonal), 1 not,
2 indeterminate (tie band), 3 parse error, 4 usage/config error.
witness: 0 witness found, 1 isolated.  path: 0 success, 1 excluded small
shape, 2 right-invertible endpoint.  Any other error, from the library or
internal (e.g. a failed LAPACK call), exits with 5, never a verdict code.
"""

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field

from .algebra import (
    Element,
    Tolerances,
    _element_payload,
    element_to_json,
    is_right_invertible,
    load_element,
)
from .errors import (
    ConfigError,
    Isolated,
    OrthographError,
    ParseError,
    RightInvertibleEndpoint,
    ShapeMismatch,
    SmallAlgebra,
)
from .graph import (
    augment_with_paths,
    build_graph,
    components_and_distances,
    export_graph,
    sample_vertices,
)
from .orthogonality import (
    MinimizingScalar,
    OrthDecision,
    WitnessVector,
    bj_orthogonal,
    mutual_strong,
    strong_bj,
)
from .paths import connect, connect_direct_sum, non_isolated_witness
from .sampling import sample_element
from .suites import run_all

__all__ = ["main"]

_EXIT_USAGE = 4
_EXIT_PARSE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors, which collides with the
    indeterminate exit code; remap to 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(_EXIT_USAGE)


@dataclass
class RunConfig:
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = 0
    samples: int | None = None
    shape: list | None = None
    fmt: str = "table"
    split: int | None = None
    augment: bool = False
    out: str = "."


_TOL_KEYS = {
    "tol_proj": "proj",
    "tol_vec": "vec",
    "tol_eig": "eig",
    "tol_ker": "ker",
    "tol_orth": "orth",
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _parse_shape(value) -> list:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    try:
        return [int(p) for p in str(value).replace(" ", "").split(",") if p]
    except ValueError as exc:
        raise ConfigError(f"bad shape {value!r}; expected e.g. 2,3") from exc


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over defaults."""
    file_cfg: dict = {}
    cfg_path = getattr(args, "config", None) or os.environ.get("ORTHOGRAPH_CONFIG")
    if cfg_path:
        file_cfg = _load_config_file(cfg_path)

    def pick(key, default=None):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in file_cfg and file_cfg[key] is not None:
            return file_cfg[key]
        return default

    tol_kwargs = {}
    for key, fieldname in _TOL_KEYS.items():
        val = pick(key)
        if val is not None:
            tol_kwargs[fieldname] = float(val)
    try:
        tol = Tolerances(**tol_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    shape = pick("shape")
    cfg = RunConfig(
        tolerances=tol,
        seed=int(pick("seed", 0)),
        samples=(lambda s: None if s is None else int(s))(pick("samples")),
        shape=_parse_shape(shape) if shape is not None else None,
        fmt=str(pick("format", "table")),
        split=(lambda s: None if s is None else int(s))(pick("split")),
        augment=bool(pick("augment", False)),
        out=str(pick("out", ".")),
    )
    if cfg.fmt not in ("table", "json", "dot"):
        raise ConfigError(f"unknown format {cfg.fmt!r}")
    return cfg


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".orthograph-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load(path: str) -> Element:
    try:
        return load_element(path)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# --------------------------------------------------------------------------
# JSON rendering helpers


def _c(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _decision_payload(dec: OrthDecision) -> dict:
    cert: dict | None = None
    if isinstance(dec.certificate, WitnessVector):
        cert = {
            "type": "witness_vector",
            "vector": [_c(z) for z in dec.certificate.vector],
            "attained_norm": dec.certificate.attained_norm,
            "pairing": _c(dec.certificate.pairing),
        }
    elif isinstance(dec.certificate, MinimizingScalar):
        cert = {
            "type": "minimizing_scalar",
            "lambda": _c(dec.certificate.lam),
            "achieved": dec.certificate.achieved,
        }
    return {
        "verdict": bool(dec.verdict),
        "margin": float(dec.margin),
        "indeterminate": bool(dec.indeterminate),
        "certificate": cert,
    }


def _emit(payload: dict, fmt: str, table_lines: list) -> None:
    if fmt == "json":
        print(json.dumps(payload, separators=(",", ":"), sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _describe(dec: OrthDecision, label: str) -> str:
    state = "indeterminate" if dec.indeterminate else ("orthogonal" if dec.verdict else "not orthogonal")
    return f"{label:10s} {state:16s} margin={dec.margin:+.3e}"


# --------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    cfg = build_config(args)
    a = _load(args.a)
    b = _load(args.b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    tol = cfg.tolerances
    if args.mode == "bj":
        decs = {"bj": bj_orthogonal(a, b, tol)}
        ok = decs["bj"].verdict
        indet = decs["bj"].indeterminate
    elif args.mode == "strong":
        decs = {"strong": strong_bj(a, b, tol)}
        ok = decs["strong"].verdict
        indet = decs["strong"].indeterminate
    else:
        m = mutual_strong(a, b, tol)
        decs = {"forward": m.forward, "backward": m.backward}
        ok = m.adjacent
        indet = m.indeterminate
    payload = {
        "command": "check",
        "mode": args.mode,
        "decisions": {k: _decision_payload(d) for k, d in decs.items()},
        "result": "indeterminate" if indet else ("orthogonal" if ok else "not orthogonal"),
    }
    _emit(payload, cfg.fmt, [_describe(d, k) for k, d in decs.items()])
    if indet:
        return 2
    return 0 if ok else 1


def cmd_witness(args) -> int:
    cfg = build_config(args)
    a = _load(args.a)
    if a.norm() == 0.0:
        raise ParseError("the zero element is not a graph vertex")
    try:
        w = non_isolated_witness(a, cfg.tolerances)
    except Isolated:
        _emit(
            {"command": "witness", "result": "isolated"},
            cfg.fmt,
            ["isolated (right invertible)"],
        )
        return 1
    m = mutual_strong(a, w, cfg.tolerances)
    payload = {
        "command": "witness",
        "result": "witness",
        "witness": _element_payload(w),
        "margins": [m.forward.margin, m.backward.margin],
    }
    _emit(payload, cfg.fmt, [
        f"witness found; margins ({m.forward.margin:+.3e}, {m.backward.margin:+.3e})",
        element_to_json(w),
    ])
    return 0


def cmd_path(args) -> int:
    cfg = build_config(args)
    a = _load(args.a)
    b = _load(args.b)
    tol = cfg.tolerances
    try:
        if cfg.split is not None:
            path = connect_direct_sum(a, b, tol, split=cfg.split)
        else:
            path = connect(a, b, tol)
    except SmallAlgebra as exc:
        print(f"excluded small shape: {exc}", file=sys.stderr)
        return 1
    except RightInvertibleEndpoint as exc:
        print(f"right-invertible endpoint: {exc}", file=sys.stderr)
        return 2
    margins = [
        [d.forward.margin, d.backward.margin] for d in path.edge_decisions
    ]
    payload = {
        "command": "path",
        "length": path.length,
        "vertices": [_element_payload(v) for v in path.vertices],
        "edge_margins": margins,
    }
    lines = [f"path of length {path.length}"]
    for i, v in enumerate(path.vertices):
        lines.append(f"  v{i}: {element_to_json(v)}")
    for i, mg in enumerate(margins):
        lines.append(f"  edge {i}: margins ({mg[0]:+.3e}, {mg[1]:+.3e})")
    _emit(payload, cfg.fmt, lines)
    return 0


def cmd_graph(args) -> int:
    cfg = build_config(args)
    if cfg.shape is None:
        raise ConfigError("graph needs --shape")
    count = cfg.samples if cfg.samples is not None else 20
    tol = cfg.tolerances
    verts = sample_vertices(cfg.shape, count, seed=cfg.seed, tol=tol)
    provenance = {
        "seed": cfg.seed,
        "samples": count,
        "shape": list(cfg.shape),
        "tolerances": asdict(tol),
    }
    g = build_graph(verts, tol, provenance)
    if cfg.augment:
        g = augment_with_paths(g, tol)
    rep = components_and_distances(g)
    os.makedirs(cfg.out, exist_ok=True)
    _atomic_write(os.path.join(cfg.out, "graph.json"), export_graph(g, "json"))
    _atomic_write(os.path.join(cfg.out, "graph.dot"), export_graph(g, "dot"))
    invertible = [i for i, v in enumerate(g.vertices) if is_right_invertible(v, tol)]
    report = {
        "command": "graph",
        "order": g.order,
        "edges": int(g.adjacency.sum()) // 2,
        "indeterminate_pairs": len(g.indeterminate_pairs),
        "component_sizes": sorted((len(c) for c in rep.components), reverse=True),
        "observed_diameters_upper_bounds": list(rep.diameters),
        "distance_histogram": {str(k): v for k, v in sorted(rep.histogram.items())},
        "isolated_vertices": len(rep.isolated),
        "right_invertible_vertices": len(invertible),
    }
    _atomic_write(
        os.path.join(cfg.out, "report.json"),
        json.dumps(report, separators=(",", ":"), sort_keys=True) + "\n",
    )
    table = [
        f"vertices          {report['order']}",
        f"edges             {report['edges']}",
        f"indeterminate     {report['indeterminate_pairs']}",
        f"components        {report['component_sizes']}",
        "observed diameters (upper bounds) "
        + ", ".join(str(d) for d in report["observed_diameters_upper_bounds"]),
        f"isolated          {report['isolated_vertices']}",
        f"right invertible  {report['right_invertible_vertices']}",
        f"artifacts written to {cfg.out}",
    ]
    _emit(report, cfg.fmt, table)
    return 0


def cmd_verify(args) -> int:
    cfg = build_config(args)
    results = run_all(samples=cfg.samples, seed=cfg.seed, tol=cfg.tolerances)
    payload = {
        "command": "verify",
        "suites": [
            {
                "name": r.name,
                "samples": r.samples,
                "failures": r.failures,
                "indeterminate": r.indeterminate,
                "passed": r.passed,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    _emit(payload, cfg.fmt, [r.line() for r in results])
    return 0 if payload["passed"] else 1


def cmd_gen(args) -> int:
    cfg = build_config(args)
    if cfg.shape is None:
        raise ConfigError("gen needs --shape")
    el = sample_element(cfg.shape, args.rank_profile, cfg.seed)
    text = element_to_json(el) + "\n"
    if args.out_file:
        _atomic_write(args.out_file, text)
        print(f"wrote {args.out_file}")
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (or set ORTHOGRAPH_CONFIG)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--shape", default=None, help="block sizes, e.g. 2,3")
    p.add_argument("--split", type=int, default=None,
                   help="blocks in the left summand (direct-sum commands)")
    p.add_argument("--augment", action="store_const", const=True, default=None)
    p.add_argument("--format", default=None, choices=("table", "json", "dot"))
    p.add_argument("--out", default=None, help="output directory")
    for flag in ("--tol-proj", "--tol-vec", "--tol-eig", "--tol-ker", "--tol-orth"):
        p.add_argument(flag, type=float, default=None)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orthograph",
                     description="strong Birkhoff-James orthogonality toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="decide orthogonality of two element files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mode", choices=("bj", "strong", "mutual"), default="mutual")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("witness", help="neighbor witness or isolation verdict")
    p.add_argument("a")
    _add_common(p)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("path", help="verified orthogonality path between two files")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p)
    p.set_defaults(fn=cmd_path)

    p = sub.add_parser("graph", help="sample, build and export an orthogonality graph")
    _add_common(p)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("verify", help="run the cross-module property suites")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="generate a random element file")
    p.add_argument("--rank-profile", default="full",
                   help="full, deficient:K or projection:K")
    p.add_argument("--out-file", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except (ConfigError, ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except Exception as exc:  # library errors and internal ones alike
        kind = "error" if isinstance(exc, OrthographError) else f"internal error: {type(exc).__name__}"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
