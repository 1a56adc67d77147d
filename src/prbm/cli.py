"""Command-line front end for the transport library.

Every subcommand resolves its parameters with the precedence
flags > JSON config file > built-in defaults, runs, and writes a JSON
manifest echoing the fully resolved configuration next to its outputs,
also when it fails on a domain error. Tables are CSV with a leading
``# {json}`` metadata line; floats are printed in full round-trip form,
so identical flags and seed give byte-identical payloads.

Exit codes: 0 success, 1 domain error (bad geometry, singular systems,
excessive censoring and friends), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy

from . import __version__
from .dtn import build_M, build_Q, hitting_distribution, impedance_curve
from .dtn import spectrum as dtn_spectrum
from .dtn import spreading_operator
from .errors import InvalidParam, PrbmError, _nonnegative
from .geometry import (
    LatticeDomain,
    circle_polyline,
    lattice_box,
    lattice_channel,
    load_polyline,
    make_canonical,
    rasterize,
    rasterize_loop,
)
from .halfspace import (
    absorption_probability_disk,
    spread_kernel_t,
    stopping_time_cdf,
    stopping_time_density,
)
from .lsa import compare_flux, koch_polyline
from .rng import RngStream
from .spectral import annulus_spectrum, ball_degeneracy, ball_eigenvalue, impedance_from_spectrum
from .walkers import JumpParams, estimate_spread_measure


class _ConfigError(Exception):
    """Bad flag/config combination; reported as a usage error (exit 2)."""


# ---------------------------------------------------------------------------
# parameter plumbing


@dataclass(frozen=True)
class _Param:
    key: str                      # config-file and manifest name
    default: Any = None
    type: Callable[[str], Any] | None = float
    flag: bool = False            # store_true switch
    choices: tuple[str, ...] | None = None
    required: bool = False        # enforced after config resolution
    help: str = ""

    @property
    def dest(self) -> str:
        # 'lambda' is a keyword, so its attribute slot needs another name
        return "lam" if self.key == "lambda" else self.key.replace("-", "_")


_COMMON = [
    _Param("seed", 0, int, help="base seed; all randomness derives from it"),
    _Param("out", None, str, help="output path (CSV, or prefix for dtn); stdout when omitted"),
    _Param("manifest", None, str, help="manifest path (default: <out>.manifest.json)"),
]

_SPECS: dict[str, list[_Param]] = {
    "halfspace": _COMMON + [
        _Param("prob", flag=True, help="print the absorption probability on the centered chord/disk"),
        _Param("table", None, str, choices=("stopping-time", "spread-kernel", "absorption"),
               help="emit a sampled analytic table instead"),
        _Param("d", 2, int, help="space dimension"),
        _Param("ratio", 0.5, float, help="chord/disk half-size in units of Lambda (with --prob)"),
        _Param("lambda", 1.0, float, help="interface length scale"),
        _Param("t-max", 10.0, float, help="largest stopping time in the table"),
        _Param("s-max", 5.0, float, help="largest lateral offset in the table"),
        _Param("ratio-max", 10.0, float, help="largest r/Lambda in the absorption table"),
        _Param("points", 200, int, help="table resolution"),
    ],
    "simulate": _COMMON + [
        _Param("domain", None, str, required=True,
               choices=("halfplane", "halfspace3", "disk", "disk-exterior",
                        "ball", "ball-exterior", "annulus", "lattice"),
               help="where the walkers live"),
        _Param("domain-file", None, str, help="lattice domain JSON (with --domain lattice)"),
        _Param("outer-radius", None, float, help="grounded circle radius (annulus)"),
        _Param("lambda", 1.0, float, help="interface length scale"),
        _Param("jump", None, float,
               help="jump size a (default: mesh on lattices, 0.01*max(lambda,1) otherwise)"),
        _Param("walkers", 100_000, int, help="ensemble size"),
        _Param("bins", 64, int, help="histogram bins on the working interface"),
        _Param("window", None, float, help="half-width of the binned window (half-space only)"),
        _Param("start", None, str, help="launch point 'x,y[,z]', or 'source' on lattices"),
        _Param("chunk-size", 100_000, int, help="walkers per vectorized chunk"),
        _Param("threads", None, int, help="worker threads (default: PRBM_THREADS or 1)"),
        _Param("max-steps", 10_000_000, int, help="per-walker step budget before censoring"),
        _Param("censored-ceiling", 0.01, float, help="largest tolerated censored fraction"),
    ],
    "spectrum": _COMMON + [
        _Param("domain", None, str, required=True, choices=("disk", "ball", "annulus"),
               help="canonical domain"),
        _Param("count", 32, int, help="number of spectral lines"),
        _Param("outer-radius", None, float, help="grounded circle radius (annulus)"),
        _Param("variant", "interior", str, choices=("interior", "exterior"),
               help="ball spectrum side"),
    ],
    "impedance": _COMMON + [
        _Param("domain", "annulus", str, choices=("annulus",),
               help="canonical domain with a source (annulus only)"),
        _Param("outer-radius", None, float, required=True, help="grounded circle radius"),
        _Param("lambda-grid", "0.01:100:25", str,
               help="'min:max:n' log-spaced, or comma-separated values"),
        _Param("count", 64, int, help="spectral truncation"),
        _Param("d-coeff", 1.0, float, help="diffusion coefficient D"),
    ],
    "dtn": _COMMON + [
        _Param("domain-file", None, str, required=True, help="lattice domain JSON"),
        _Param("lambda-grid", "0.01:100:25", str,
               help="'min:max:n' log-spaced, or comma-separated values"),
        _Param("d-coeff", 1.0, float, help="diffusion coefficient D"),
        _Param("dump-matrices", flag=True,
               help="also write Q and M as row-major float64 binaries with a JSON sidecar"),
    ],
    "lsa": _COMMON + [
        _Param("curve", None, str, required=True,
               help="working curve: polyline JSON (file or literal), or koch1/koch2/koch3"),
        _Param("lambda", None, float, required=True, help="coarse-graining arclength"),
        _Param("mesh", None, float, required=True, help="lattice mesh (at most lambda/10)"),
        _Param("source-height", None, float,
               help="flat source elevation (default: 1 above the curve top)"),
        _Param("d-coeff", 1.0, float, help="diffusion coefficient D"),
    ],
    "validate": _COMMON,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prbm",
        description="Laplacian transport across semi-permeable interfaces",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="subcommand")
    for name, params in _SPECS.items():
        p = sub.add_parser(name, help=None)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with defaults for any flag of this subcommand")
        for prm in params:
            flag = f"--{prm.key}"
            if prm.flag:
                p.add_argument(flag, dest=prm.dest, action="store_true", default=None,
                               help=prm.help)
            else:
                p.add_argument(flag, dest=prm.dest, type=prm.type, default=None,
                               choices=prm.choices, help=prm.help)
    return parser


# the JSON values a config key may hold, by its flag's type (a bool is no
# number), and the keys that also take a list
_CONFIG_TYPES = {bool: (bool, "true or false"), int: (int, "an integer"),
                 float: ((float, int), "a number"), str: (str, "a string")}
_LIST_KEYS = ("lambda-grid", "start")

# flags that apply to some domains only, by subcommand: a value other than the
# default on any other --domain is a usage error
_DOMAIN_FLAGS = {
    "simulate": {"outer-radius": ("annulus",), "domain-file": ("lattice",), "window": ("halfplane", "halfspace3")},
    "spectrum": {"outer-radius": ("annulus",), "variant": ("ball",)},
}


def _resolve_config(args: argparse.Namespace) -> dict[str, Any]:
    params = _SPECS[args.cmd]
    known = {p.key for p in params}
    file_cfg: dict[str, Any] = {}
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise _ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise _ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - known)
        if unknown:
            raise _ConfigError(f"unknown config keys for '{args.cmd}': {', '.join(unknown)}")
    cfg: dict[str, Any] = {}
    for prm in params:
        value = getattr(args, prm.dest)
        if value is None and prm.key in file_cfg:
            value = file_cfg[prm.key]
            kind, what = _CONFIG_TYPES[bool if prm.flag else prm.type]
            if prm.key in _LIST_KEYS and isinstance(value, list):
                if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value):
                    raise _ConfigError(f"config key {prm.key!r} must list numbers, not {value!r}")
            elif not (value is None or isinstance(value, bool) == prm.flag and isinstance(value, kind)):
                raise _ConfigError(f"config key {prm.key!r} must be {what}, as its flag is, not {value!r}")
            if prm.choices is not None and value not in prm.choices:
                raise _ConfigError(f"config key {prm.key!r} must be one of {prm.choices}")
        if value is None:
            value = prm.default if not prm.flag else False
        if prm.required and value is None:
            raise _ConfigError(f"--{prm.key} is required for '{args.cmd}'")
        cfg[prm.key] = value
    defaults = {prm.key: prm.default for prm in params}
    for key, names in _DOMAIN_FLAGS.get(args.cmd, {}).items():
        if cfg[key] != defaults[key] and cfg["domain"] not in names:
            hint = "" if defaults[key] is None else f"; {cfg['domain']} takes --{key} {defaults[key]}"
            raise _ConfigError(f"--{key} only applies to --domain {' or '.join(names)}{hint}")
    return cfg


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value: Any) -> str:
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        # JSON has no NaN or infinity; a non-finite value is written as its name
        return float(obj) if math.isfinite(obj) else str(float(obj))
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_csv(path: str | None, meta: dict, header: list[str], rows) -> list[str]:
    lines = ["# " + json.dumps(_jsonable(meta), sort_keys=True), ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    payload = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(payload)
        return []
    Path(path).write_text(payload, encoding="utf-8")
    return [str(path)]


def _parse_lambda_grid(spec: Any) -> np.ndarray:
    text = str(spec)
    try:
        if isinstance(spec, (list, tuple, np.ndarray)):
            grid = np.asarray(spec, dtype=float)
        elif ":" in text:
            lo_s, hi_s, n_s = text.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
            if not (0 < lo < hi) or n < 2:
                raise ValueError("need 0 < min < max and n >= 2")
            grid = np.geomspace(lo, hi, n)
        else:
            grid = np.array([float(tok) for tok in text.split(",")])
        if grid.size == 0:
            raise ValueError("the grid is empty")
        return _nonnegative(grid, "Lambda")
    except (TypeError, ValueError) as exc:  # InvalidParam is a ValueError too
        raise _ConfigError(f"bad --lambda-grid {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# domain files


def _polyline_from(spec: Any) -> np.ndarray:
    if isinstance(spec, dict):
        if "circle" not in spec:
            raise InvalidParam("polyline object must carry a 'circle' entry")
        c = spec["circle"]
        return circle_polyline(c["radius"], c.get("n", 2048), c.get("center", (0.0, 0.0)))
    return load_polyline(spec)


def _domain_from_file(path: str) -> LatticeDomain:
    """Lattice domain from a small JSON description.

    Builders: box (nx, ny, mesh, source_side), loop (polyline, mesh),
    two_loops (working, source, mesh), channel (n_rows, mesh, width,
    source_top). Polylines are [[x, y], ...] lists or {"circle":
    {"radius": r, "n": n, "center": [x, y]}}.
    """
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParam(f"cannot read domain file {path}: {exc}") from exc
    try:
        builder = obj.get("builder")
        if builder == "box":
            return lattice_box(obj["nx"], obj["ny"], obj["mesh"], obj.get("source_side", "top"))
        if builder == "loop":
            return rasterize_loop(_polyline_from(obj["polyline"]), obj["mesh"])
        if builder == "two_loops":
            return rasterize(_polyline_from(obj["working"]), _polyline_from(obj["source"]), obj["mesh"])
        if builder == "channel":
            return lattice_channel(obj["n_rows"], obj["mesh"], obj.get("width", 1), obj.get("source_top", True))
    except PrbmError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise InvalidParam(f"malformed domain file {path}: {type(exc).__name__}: {exc}") from exc
    raise InvalidParam(f"unknown domain builder {builder!r} in {path}")


def _curve_from(spec: str) -> np.ndarray:
    if spec.startswith("koch") and spec[4:].isdigit():
        return koch_polyline(int(spec[4:]))
    return load_polyline(spec)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_halfspace(cfg: dict) -> dict:
    if bool(cfg["prob"]) == (cfg["table"] is not None):
        raise _ConfigError("pick exactly one of --prob and --table")
    lam, d = cfg["lambda"], cfg["d"]
    if cfg["prob"]:
        value = absorption_probability_disk(cfg["ratio"], 1.0, d)
        print(_fmt(value))
        outputs = []
        if cfg["out"] is not None:
            meta = {"d": d, "ratio": cfg["ratio"]}
            outputs = _write_csv(cfg["out"], meta, ["d", "ratio", "probability"],
                                 [(d, cfg["ratio"], value)])
        return {"outputs": outputs, "summary": {"probability": value}}

    kind = cfg["table"]
    pts = cfg["points"]
    if pts < 2:
        raise _ConfigError("--points must be at least 2")
    if kind == "stopping-time":
        t = np.linspace(cfg["t-max"] / pts, cfg["t-max"], pts)
        rows = [(ti, stopping_time_density(ti, lam), stopping_time_cdf(ti, lam)) for ti in t]
        header = ["t", "density", "cdf"]
    elif kind == "spread-kernel":
        if d == 2:
            s = np.linspace(-cfg["s-max"], cfg["s-max"], 2 * pts + 1)
        else:
            s = np.linspace(0.0, cfg["s-max"], pts + 1)
        rows = [(si, spread_kernel_t(si, lam, d)) for si in s]
        header = ["s", "density"]
    else:
        r = np.linspace(0.0, cfg["ratio-max"], pts + 1)
        rows = [(ri, absorption_probability_disk(ri, 1.0, d)) for ri in r]
        header = ["ratio", "probability"]
    meta = {"table": kind, "d": d, "lambda": lam}
    outputs = _write_csv(cfg["out"], meta, header, rows)
    return {"outputs": outputs}


def _parse_start(raw: Any, default) -> np.ndarray:
    if isinstance(raw, str):
        try:
            return np.array([float(tok) for tok in raw.split(",")])
        except ValueError as exc:
            raise _ConfigError(f"bad --start {raw!r}: {exc}") from exc
    return np.asarray(default if raw is None else raw, dtype=float)


_CANONICAL = {
    "halfplane": ("half_space", 2, (0.0, 1.0)),
    "halfspace3": ("half_space", 3, (0.0, 0.0, 1.0)),
    "disk": ("disk_interior", 2, (0.0, 0.0)),
    "disk-exterior": ("disk_exterior", 2, (2.0, 0.0)),
    "ball": ("ball_interior", 3, (0.0, 0.0, 0.0)),
    "ball-exterior": ("ball_exterior", 3, (2.0, 0.0, 0.0)),
}


def _cmd_simulate(cfg: dict) -> dict:
    lam = cfg["lambda"]
    name = cfg["domain"]
    if name == "lattice":
        if cfg["domain-file"] is None:
            raise _ConfigError("--domain lattice needs --domain-file")
        dom: Any = _domain_from_file(cfg["domain-file"])
        jump = cfg["jump"] if cfg["jump"] is not None else dom.mesh
        start: Any = "source" if cfg["start"] in (None, "source") else _parse_start(cfg["start"], None)
    else:
        if name == "annulus":
            if cfg["outer-radius"] is None:
                raise _ConfigError("--domain annulus needs --outer-radius")
            R = cfg["outer-radius"]
            dom = make_canonical("annulus", outer_radius=R)
            dim, default_start = 2, (0.5 * (1 + R), 0.0)
        else:
            kind, dim, default_start = _CANONICAL[name]
            dom = make_canonical(kind, dimension=dim)
        jump = cfg["jump"] if cfg["jump"] is not None else 0.01 * max(lam, 1.0)
        start = _parse_start(cfg["start"], default_start)
        if len(start) != dim:
            raise _ConfigError(f"--start must have {dim} coordinates for {name}")

    params = JumpParams(Lambda=lam, a=jump, max_steps=cfg["max-steps"])
    stream = RngStream(cfg["seed"], 0)
    hist = estimate_spread_measure(
        dom, start, params, cfg["walkers"], stream,
        bins=cfg["bins"], window=cfg["window"], chunk_size=cfg["chunk-size"],
        censored_ceiling=cfg["censored-ceiling"], threads=cfg["threads"],
    )

    meta = {
        "domain": name, "lambda": lam, "jump": jump, "walkers": cfg["walkers"],
        "seed": cfg["seed"], "censored": hist.censored,
        "source_absorbed": hist.source_absorbed,
        "working_absorbed": hist.working_absorbed,
    }
    prob, err = hist.estimate, hist.stderr
    if isinstance(dom, LatticeDomain):
        mids = dom.face_midpoints()[dom.working_mask()]
        header = ["face", "x", "y", "count", "probability", "stderr"]
        rows = [(i, mids[i, 0], mids[i, 1], hist.counts[i], prob[i], err[i])
                for i in range(len(hist.counts))]
    else:
        edges = hist.bin_edges
        left = list(edges[:-1])
        right = list(edges[1:])
        if len(hist.counts) == len(edges):  # trailing overflow bin
            left.append(edges[-1])
            right.append(math.inf)
        header = ["bin_left", "bin_right", "count", "probability", "stderr"]
        rows = [(left[i], right[i], hist.counts[i], prob[i], err[i])
                for i in range(len(hist.counts))]
    outputs = _write_csv(cfg["out"], meta, header, rows)
    print(f"{hist.total} walkers: working {hist.working_absorbed}, "
          f"source {hist.source_absorbed}, censored {hist.censored}")
    return {"outputs": outputs, "censored": hist.censored,
            "summary": {"working_absorbed": hist.working_absorbed,
                        "source_absorbed": hist.source_absorbed}}


def _cmd_spectrum(cfg: dict) -> dict:
    count = cfg["count"]
    if count < 1:
        raise _ConfigError("--count must be positive")
    name = cfg["domain"]
    if name == "annulus":
        if cfg["outer-radius"] is None:
            raise _ConfigError("--domain annulus needs --outer-radius")
        spec = annulus_spectrum(cfg["outer-radius"], count - 1)
        rows = list(zip(spec.index, spec.mu, spec.degeneracy))
    elif name == "ball":
        rows = [(l, ball_eigenvalue(l, cfg["variant"]), ball_degeneracy(l))
                for l in range(count)]
    else:
        rows = [(n, float(n), 1 if n == 0 else 2) for n in range(count)]
    meta = {"domain": name, "count": count, "outer_radius": cfg["outer-radius"],
            "variant": cfg["variant"]}
    outputs = _write_csv(cfg["out"], meta, ["index", "mu", "degeneracy"], rows)
    return {"outputs": outputs}


def _annulus_impedance(R: float, D: float, count: int, grid) -> list[dict]:
    """Spectral impedance of the annulus fed by a uniform unit source, along grid."""
    spec = annulus_spectrum(R, count)
    # a uniform unit source on the grounded circle drives only the flat mode
    weights = np.zeros_like(spec.mu)
    weights[0] = 1.0 / (2.0 * math.pi)
    z_cell0 = math.log(R) / (2.0 * math.pi * D)
    return [impedance_from_spectrum(spec.mu, weights, lam, D, z_cell0=z_cell0) for lam in grid]


def _cmd_impedance(cfg: dict) -> dict:
    R, D = cfg["outer-radius"], cfg["d-coeff"]
    grid = _parse_lambda_grid(cfg["lambda-grid"])
    rows = [(lam, z["Z"], z["Z_sp"]) for lam, z in zip(grid, _annulus_impedance(R, D, cfg["count"], grid))]
    meta = {"domain": "annulus", "outer_radius": R, "d_coeff": D, "count": cfg["count"]}
    outputs = _write_csv(cfg["out"], meta, ["Lambda", "Z", "Z_sp"], rows)
    return {"outputs": outputs}


def _cmd_dtn(cfg: dict) -> dict:
    dom = _domain_from_file(cfg["domain-file"])
    grid = _parse_lambda_grid(cfg["lambda-grid"])
    qm = build_Q(dom)
    M = build_M(qm)
    phi = hitting_distribution(dom).density if qm.has_source else None
    spec = dtn_spectrum(M, phi, qm.measure, qm.weight)
    prefix = cfg["out"] if cfg["out"] is not None else "dtn"
    meta = {"domain_file": cfg["domain-file"], "n_working": qm.n,
            "mesh": dom.mesh, "has_source": qm.has_source}
    outputs = _write_csv(f"{prefix}.spectrum.csv", meta, ["index", "mu", "F"],
                         [(i, spec.mu[i], spec.F[i]) for i in range(len(spec.mu))])
    imp = impedance_curve(spec, grid, cfg["d-coeff"])
    outputs += _write_csv(
        f"{prefix}.impedance.csv", meta,
        ["Lambda", "Z", "Z_cell", "Z_cell0", "Z_sp", "Z_sp_diff"],
        [(r["Lambda"], r["Z"], r["Z_cell"], r["Z_cell0"], r["Z_sp"], r["Z_sp_diff"])
         for r in imp],
    )
    if cfg["dump-matrices"]:
        sidecar = {"dtype": "float64", "order": "row-major", "shape": [qm.n, qm.n],
                   "files": {"Q": f"{prefix}.Q.bin", "M": f"{prefix}.M.bin"},
                   "mesh": dom.mesh}
        Path(f"{prefix}.Q.bin").write_bytes(np.ascontiguousarray(qm.Q).tobytes())
        Path(f"{prefix}.M.bin").write_bytes(np.ascontiguousarray(M).tobytes())
        Path(f"{prefix}.matrices.json").write_text(json.dumps(sidecar, indent=2) + "\n")
        outputs += [f"{prefix}.Q.bin", f"{prefix}.M.bin", f"{prefix}.matrices.json"]
    return {"outputs": outputs}


def _cmd_lsa(cfg: dict) -> dict:
    curve = _curve_from(cfg["curve"])
    height = cfg["source-height"]
    if height is None:
        height = float(np.max(curve[:, 1])) + 1.0
    report = compare_flux(curve, height, cfg["lambda"], cfg["mesh"], cfg["d-coeff"])
    body = {
        "original_flux": report.original_flux,
        "coarse_flux": report.coarse_flux,
        "relative_error": report.relative_error,
        "n_chords": report.n_chords,
        "Lambda": report.Lambda,
        "source_height": height,
        "note": report.note,
    }
    outputs = []
    if cfg["out"] is not None:
        Path(cfg["out"]).write_text(json.dumps(_jsonable(body), indent=2, sort_keys=True) + "\n")
        outputs = [cfg["out"]]
    print(f"relative_error {report.relative_error!r} over {report.n_chords} chords "
          f"(mixed {report.original_flux!r}, coarse Dirichlet {report.coarse_flux!r})")
    return {"outputs": outputs, "summary": body}


def _cmd_validate(cfg: dict) -> dict:
    checks: list[dict[str, Any]] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")

    p2 = absorption_probability_disk(0.5, 1.0, 2)
    record("half-plane chord absorption", abs(p2 - 0.4521) <= 5e-4,
           f"P(d=2, r=Lambda/2) = {p2:.6f}, reference 0.4521 +- 5e-4")
    p3 = absorption_probability_disk(1.0, 1.0, 3)
    record("half-space disk absorption", abs(p3 - 0.4611) <= 5e-4,
           f"P(d=3, r=Lambda) = {p3:.6f}, reference 0.4611 +- 5e-4")

    lams = (1e-2, 1.0, 1e2)
    worst = max(abs(z["Z_sp"] * 2.0 * math.pi / lam - 1.0)
                for lam, z in zip(lams, _annulus_impedance(3.0, 1.0, 64, lams)))
    record("annulus spectral impedance", worst <= 1e-10,
           f"max |Z_sp/(Lambda/2 pi D) - 1| = {worst:.2e} over three decades")

    box = lattice_box(12, 12, 1.0 / 12.0)
    qm = build_Q(box)
    asym = float(np.max(np.abs(qm.Q - qm.Q.T)))
    record("self-transport symmetry", asym < 1e-12, f"max |Q - Q^T| = {asym:.2e}")
    rows_sum = qm.Q.sum(axis=1)
    record("sub-stochastic with source",
           bool(np.all(rows_sum <= 1 + 1e-12) and np.any(rows_sum < 1 - 1e-6)),
           f"row sums in [{rows_sum.min():.6f}, {rows_sum.max():.6f}]")
    closed = lattice_box(8, 8, 0.125, source_side=None)
    rows_closed = build_Q(closed).Q.sum(axis=1)
    dev = float(np.max(np.abs(rows_closed - 1.0)))
    record("row-stochastic without source", dev < 1e-12, f"max |row sum - 1| = {dev:.2e}")

    M = build_M(qm)
    T = spreading_operator(M, 0.7)
    resid = float(np.max(np.abs((np.eye(qm.n) + 0.7 * M) @ T - np.eye(qm.n))))
    record("resolvent inverse", resid < 1e-9, f"max |(I + Lambda M) T - I| = {resid:.2e}")

    spec_d = dtn_spectrum(M, None, qm.measure)
    recon = spec_d.V @ np.diag(1.0 / (1.0 + 0.7 * spec_d.mu)) @ (spec_d.V.T * spec_d.measure)
    err = float(np.max(np.abs(recon - T)))
    record("spectral reconstruction", err < 1e-8, f"max |T_eig - T_solve| = {err:.2e}")

    failed = [c["name"] for c in checks if not c["passed"]]
    out: dict[str, Any] = {"checks": checks}
    if failed:
        out["exit_code"] = 1
        out["error_message"] = f"validation failed: {', '.join(failed)}"
    return out


_HANDLERS: dict[str, Callable[[dict], dict]] = {
    "halfspace": _cmd_halfspace,
    "simulate": _cmd_simulate,
    "spectrum": _cmd_spectrum,
    "impedance": _cmd_impedance,
    "dtn": _cmd_dtn,
    "lsa": _cmd_lsa,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except _ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    status, error, code, extras = "ok", None, 0, {}
    try:
        extras = _HANDLERS[args.cmd](cfg) or {}
        code = int(extras.pop("exit_code", 0))
        if code != 0:
            status = "error"
            error = extras.pop("error_message", "failed")
    except _ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PrbmError as exc:
        status, error, code = "error", f"{type(exc).__name__}: {exc}", 1

    manifest: dict[str, Any] = {
        "subcommand": args.cmd,
        "status": status,
        "error": error,
        "config": _jsonable(cfg),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "prbm": __version__,
        },
        "wall_time_s": time.perf_counter() - t0,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }
    manifest.update(_jsonable(extras))
    mpath = cfg.get("manifest")
    if mpath is None:
        base = cfg.get("out")
        mpath = f"{base}.manifest.json" if base else f"prbm-{args.cmd}.manifest.json"
    Path(mpath).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
