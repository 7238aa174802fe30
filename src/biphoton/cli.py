"""Command-line front end.

Subcommands produce plain text tables (`#` header lines, then rows of
numbers) that any plotting tool can consume; no rendering is built in.
Every output carries a header echoing the fully resolved configuration
(including the seed), so a rerun with the same arguments is
byte-identical.

Configuration precedence: command-line flags override config-file
entries, which override the built-in defaults (the moderate waist-and-
crystal parameter set: lambda_p 0.4047 um, phi0 0.5275 rad, waist and
length 0.1 cm, z 100 cm).

Exit codes: 0 success, 2 configuration error, 3 numerical-accuracy
failure (a --rel-tol finer than the library's accuracy, refused before
any output is written).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import crystal as cr
from . import distributions as dist
from . import ringscan as rs
from .curves import write_table
from .wavefunction import SpdcParams
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

DEFAULTS = {
    "crystal": None,          # bundled BBO
    "lambda_p": 0.4047,       # um
    "phi0": 0.5275,           # rad
    "theta0": None,           # rad, overrides phi0 when set
    "waist": 0.1,             # cm
    "length": 0.1,            # cm
    "z": 100.0,               # cm
    "grid": 2001,
    "seed": 12345,
    "out": "out",
    "normalize": "area",
    "pairs": 1_000_000,
    "k2x": 0.0,               # cm^-1
    "slit": None,             # cm, default delta_r/2
    "rel_tol": 1e-6,
}

_CONFIG_KEYS = set(DEFAULTS)
_NORM_MAP = {"raw": "raw", "area": "unit-area", "peak": "unit-peak"}


class ConfigError(ValueError):
    pass


class AccuracyError(RuntimeError):
    """Requested accuracy finer than the library's stated accuracy."""


@dataclass
class RunConfig:
    crystal: str | None
    lambda_p: float
    phi0: float | None
    theta0: float | None
    waist: float
    length: float
    z: float
    grid: int
    seed: int
    out: str
    normalize: str
    pairs: int
    k2x: float
    slit: float | None
    rel_tol: float

    def echo_lines(self):
        return ["config: " + " ".join(f"{k}={getattr(self, k)!r}"
                                      for k in DEFAULTS if k != "out")]


def _parse_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = raw
    return values


_FLOAT_KEYS = {"lambda_p", "phi0", "theta0", "waist", "length", "z", "k2x",
               "slit", "rel_tol"}
_INT_KEYS = {"grid", "seed", "pairs"}
# keys whose resolved value may be None; any other key must be given a value
_NONE_KEYS = {"crystal", "phi0", "theta0", "slit"}


def _coerce(key, raw):
    if raw is None or raw == "" or raw.lower() == "none":
        if key not in _NONE_KEYS:
            raise ConfigError(f"config key {key!r} needs a value, got {raw!r}")
        return None
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from None
    return raw


def resolve_config(args):
    values = dict(DEFAULTS)
    explicit = set()
    if args.config is not None:
        file_vals = _parse_config_file(args.config)
        for k, raw in file_vals.items():
            values[k] = _coerce(k, raw)
            if values[k] is not None:
                explicit.add(k)
    for k in _CONFIG_KEYS:
        v = getattr(args, k, None)
        if v is not None:
            values[k] = v
            explicit.add(k)
    if "phi0" in explicit and "theta0" in explicit:
        raise ConfigError("give only one of phi0 / theta0")
    if values["theta0"] is not None:
        # an explicit cone angle overrides the built-in default cut angle
        values["phi0"] = values["phi0"] if "phi0" in explicit else None
    if values["phi0"] is None and values["theta0"] is None:
        raise ConfigError("one of phi0 / theta0 is required")
    cfg = RunConfig(**values)
    for name in sorted(_FLOAT_KEYS):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    for name in ("lambda_p", "waist", "length", "z", "rel_tol"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if cfg.rel_tol < dist._G_REL_ERR:
        raise AccuracyError(f"accuracy {cfg.rel_tol:g} is finer than G(u) is "
                            f"evaluated to ({dist._G_REL_ERR:g})")
    if cfg.slit is not None and cfg.slit <= 0:
        raise ConfigError("slit must be positive")
    # past the vacuum wavenumber pi/lambda_p of a degenerate photon the
    # partner is evanescent (and near 1e190 the coincidence grid rounds away)
    k_photon = math.pi / (cfg.lambda_p * cr.MICRON_TO_CM)
    if abs(cfg.k2x) >= k_photon:
        raise ConfigError("k2x must be below the photon wavenumber pi/lambda_p "
                          f"in magnitude, got {cfg.k2x!r}")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if cfg.grid < 3:
        raise ConfigError("grid must hold at least 3 points")
    if cfg.pairs <= 0:
        raise ConfigError("pairs must be positive")
    if cfg.normalize not in _NORM_MAP:
        raise ConfigError(f"unknown normalize mode {cfg.normalize!r}")
    return cfg


def _load_setup(cfg):
    disp = cr.load_crystal(cfg.crystal)
    try:
        params = SpdcParams.from_crystal(disp, cfg.lambda_p, cfg.waist,
                                         cfg.length, phi0=cfg.phi0,
                                         theta0=cfg.theta0)
    except (ValueError, cr.WavelengthRangeError) as exc:
        raise ConfigError(str(exc)) from None
    return disp, params


def _outdir(cfg):
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_table(path, header_lines, columns, names):
    write_table(path, [*header_lines, "columns: " + " ".join(names)], columns)


def cmd_dispersion(cfg):
    disp = cr.load_crystal(cfg.crystal)
    out = _outdir(cfg)
    header = [f"biphoton dispersion ({disp.name})"] + cfg.echo_lines()

    phis = np.linspace(0.0, 1.2, cfg.grid)
    matches = [cr.phase_match(disp, cr.CutConfig(p, cfg.lambda_p)) for p in phis]
    dn = np.array([r.delta_n for r in matches])
    theta = np.array([r.theta0 if r.theta0 is not None else math.nan
                      for r in matches])
    _write_table(out / "index_difference.dat", header, [phis, dn],
                 ["phi0_rad", "delta_n"])
    _write_table(out / "cone_angle.dat", header, [phis, theta],
                 ["phi0_rad", "theta0_rad"])

    lo = max(cr.FIT_THRESHOLD + 1e-6, 0.51)
    phis_fit = np.linspace(lo, 1.2, cfg.grid)
    exact = np.array([cr.phase_match(disp, cr.CutConfig(p, cfg.lambda_p)).theta0
                      for p in phis_fit])
    fit = np.array([cr.opening_angle_fit(p) for p in phis_fit])
    resid = (fit - exact) / exact
    _write_table(out / "cone_angle_fit.dat", header,
                 [phis_fit, fit, exact, resid],
                 ["phi0_rad", "fit_rad", "exact_rad", "rel_residual"])

    root = cr.collinear_cut_angle(disp, cfg.lambda_p)
    print(f"collinear cut angle: {root:.6f} rad")
    print(f"wrote 3 tables to {out}")
    return EXIT_OK


def cmd_fcurve(cfg):
    _, params = _load_setup(cfg)
    out = _outdir(cfg)
    header = ["biphoton difference-momentum distribution"] + cfg.echo_lines() + [
        f"resolved: theta0={params.theta0!r} n_o={params.n_o!r}"]

    two_theta = 2.0 * params.theta0
    kap = dist.default_kappa_grid(params, cfg.grid)
    ks = params.k_from_kappa(kap)
    exact = dist.f_exact(ks, params)
    approx = dist.f_approx(ks, params)
    _write_table(out / "difference_distribution.dat", header,
                 [kap, exact, approx], ["kappa_minus", "exact", "cone_interior"])

    if params.theta0 > 0:
        zm = np.linspace(two_theta - 0.01, two_theta + 0.004, 801)
        kz = params.k_from_kappa(zm)
        zex = dist.f_exact(kz, params)
        zap = dist.f_approx(kz, params)
        zap[~np.isfinite(zap)] = math.nan
        _write_table(out / "difference_distribution_edge.dat", header,
                     [zm, zex, zap], ["kappa_minus", "exact", "cone_interior"])
    print(f"wrote difference-momentum tables to {out}")
    return EXIT_OK


def _report_text(params, single, plane):
    w_single, w_plane = single.half_area_width(), plane.half_area_width()
    extra = [
        f"single half-area width: {w_single:.6g} (kappa axis)",
        f"plane half-area width : {w_plane:.6g} (kappa axis)",
        f"plane/single ratio    : {w_plane / w_single:.6g}",
    ]
    return dist.entanglement_report(params, extra_lines=extra)


def cmd_distributions(cfg):
    _, params = _load_setup(cfg)
    out = _outdir(cfg)
    norm = _NORM_MAP[cfg.normalize]
    header = ["biphoton reduced distributions"] + cfg.echo_lines() + [
        f"resolved: theta0={params.theta0!r} n_o={params.n_o!r}"]

    grid = dist.default_kappa_grid(params, cfg.grid)
    single = dist.single_particle_curve(grid, params, normalization=norm)
    single.write(out / "single_particle.dat", extra_header=header)

    coinc = dist.coincidence_curve(cfg.k2x, params, normalization=norm)
    coinc.write(out / "coincidence.dat", extra_header=header)

    plane = dist.plane_restricted_curve(grid, params, normalization=norm)
    plane.write(out / "plane_restricted.dat", extra_header=header)

    text = _report_text(params, single, plane)
    (out / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    print(f"wrote distribution curves to {out}")
    return EXIT_OK


def cmd_scan(cfg):
    _, params = _load_setup(cfg)
    out = _outdir(cfg)
    try:
        ring = rs.ring_from_params(params, cfg.z)
    except rs.NoRingError as exc:
        raise ConfigError(str(exc)) from None
    slit = cfg.slit if cfg.slit is not None else 0.5 * ring.delta_r
    header = ["biphoton detector scan"] + cfg.echo_lines() + [
        f"resolved: theta0={params.theta0!r} n_o={params.n_o!r} "
        f"r0_cm={ring.r0!r} delta_r_cm={ring.delta_r!r} slit_cm={slit!r}"]

    n_bins = min(cfg.grid, 241)
    positions = 0.5 * dist.default_kappa_grid(params, n_bins) * cfg.z

    analytic = rs.scan_single(ring, positions)
    analytic.write(out / "scan_single_analytic.dat")

    sigma_x = cfg.z * params.lambda_cm / (math.pi * math.sqrt(2.0) * params.w_p)
    cpos = -ring.r0 + np.linspace(-6.0, 6.0, 61) * sigma_x

    mc = coinc = None
    for block, start in enumerate(range(0, cfg.pairs, rs._BLOCK)):
        # one block of pairs at a time, so memory does not grow with --pairs
        m = min(rs._BLOCK, cfg.pairs - start)
        batch = rs.sample_pairs(params, cfg.z, m, cfg.seed, block=block)
        part = (rs.scan_single(batch, positions),
                rs.scan_coincidence(batch, ring.r0, slit, cpos))
        mc, coinc = part if mc is None else (mc + part[0], coinc + part[1])
    mc.write(out / "scan_single_mc.dat")
    coinc.write(out / "scan_coincidence.dat")
    if coinc.is_empty:
        print("warning: coincidence scan captured no pairs", file=sys.stderr)

    kappas = positions / cfg.z
    theory = dist.f_exact(2.0 * params.k_from_kappa(kappas), params)

    def ua(v):
        return v / np.trapezoid(v, kappas)

    cols = [kappas, ua(analytic.y), ua(mc.y), ua(theory)]
    diff_am = np.abs(cols[1] - cols[3])
    diff_mm = np.abs(cols[2] - cols[3])
    _write_table(out / "scan_comparison.dat", header,
                 cols + [diff_am, diff_mm],
                 ["kappa", "analytic_ua", "mc_ua", "theory_ua",
                  "abs_diff_analytic", "abs_diff_mc"])
    print(f"ring: r0 = {ring.r0:.6g} cm, delta_r = {ring.delta_r:.6g} cm")
    print(f"wrote scan tables to {out}")
    return EXIT_OK


def cmd_report(cfg):
    _, params = _load_setup(cfg)
    out = _outdir(cfg)
    grid = dist.default_kappa_grid(params, min(cfg.grid, 1201))
    single = dist.single_particle_curve(grid, params, normalization="unit-area")
    plane = dist.plane_restricted_curve(grid, params, normalization="unit-area")
    text = _report_text(params, single, plane)
    (out / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--crystal", help="crystal coefficient file (default: bundled BBO)")
    p.add_argument("--lambda-p", dest="lambda_p", type=float,
                   help="pump wavelength, um")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--phi0", type=float, help="cut angle, rad")
    g.add_argument("--theta0", type=float, help="explicit cone opening angle, rad")
    p.add_argument("--waist", type=float, help="pump waist, cm")
    p.add_argument("--length", type=float, help="crystal length, cm")
    p.add_argument("--z", type=float, help="crystal-detector distance, cm")
    p.add_argument("--grid", type=int, help="grid resolution")
    p.add_argument("--seed", type=int, help="64-bit sampling seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--normalize", choices=sorted(_NORM_MAP),
                   help="curve normalization")
    p.add_argument("--rel-tol", dest="rel_tol", type=float,
                   help="relative accuracy required of f_exact; below the "
                        "accuracy of its closed-form evaluation (1e-12) every "
                        "command exits 3 before writing anything")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Momentum distributions of noncollinear degenerate photon pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", help="index difference and cone angle tables")
    _add_common(p)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("fcurve", help="difference-momentum distribution tables")
    _add_common(p)
    p.set_defaults(func=cmd_fcurve)

    p = sub.add_parser("distributions",
                       help="single, coincidence and plane-restricted curves")
    _add_common(p)
    p.add_argument("--k2x", type=float, help="fixed partner momentum, cm^-1")
    p.set_defaults(func=cmd_distributions)

    p = sub.add_parser("scan", help="analytic and Monte-Carlo detector scans")
    _add_common(p)
    p.add_argument("--pairs", type=int, help="Monte-Carlo pair count")
    p.add_argument("--slit", type=float, help="D2 slit width, cm")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("report", help="widths and entanglement ratio")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.func(cfg)
    except (ConfigError, cr.CrystalFileError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AccuracyError as exc:
        print(f"numerical accuracy failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
