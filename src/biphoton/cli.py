"""Command-line front end.

Subcommands produce plain text tables (`#` header lines, then rows of
numbers) that any plotting tool can consume; no rendering is built in.
Every output carries a header echoing the fully resolved configuration
(including the seed), so a rerun with the same arguments is
byte-identical.

Each config key is declared once, in _KEYS: its type, default, help text
and the commands that take it as a flag (`--lambda-p` for `lambda_p`).
The flags, the config-file parsing, the `# config:` echo and the
resolved configuration (an argparse.Namespace) all come from that table.
A config file may set any key for any command.

Configuration precedence: command-line flags override config-file
entries, which override the built-in defaults (the moderate waist-and-
crystal parameter set: lambda_p 0.4047 um, phi0 0.5275 rad, waist and
length 0.1 cm, z 100 cm).

Exit codes: 0 success, 2 configuration error (this includes a flag
value argparse cannot parse, a pump wavelength outside the crystal's
range and, for `dispersion`, a crystal with no collinear cut), 3
numerical-accuracy failure (a --rel-tol finer than the library's
accuracy).  Both failures come before any output is written.
"""

from __future__ import annotations

import argparse
import math
import sys

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

# key: (type, default, help, the commands taking it as a flag or None for all)
_KEYS = {
    "crystal": (str, None, "crystal coefficient file (default: bundled BBO)", None),
    "lambda_p": (float, 0.4047, "pump wavelength, um", None),
    "phi0": (float, 0.5275, "cut angle, rad", None),
    "theta0": (float, None, "explicit cone opening angle, rad; replaces the "
                            "default phi0", None),
    "waist": (float, 0.1, "pump waist, cm", None),
    "length": (float, 0.1, "crystal length, cm", None),
    "z": (float, 100.0, "crystal-detector distance, cm", None),
    "grid": (int, 2001, "grid resolution", None),
    "seed": (int, 12345, "64-bit sampling seed", None),
    "out": (str, "out", "output directory", None),
    "normalize": (str, "area", "curve normalization: area, peak or raw", None),
    "pairs": (int, 1_000_000, "Monte-Carlo pair count", {"scan"}),
    "k2x": (float, 0.0, "fixed partner momentum, cm^-1", {"distributions"}),
    "slit": (float, None, "D2 slit width, cm (default: delta_r/2)", {"scan"}),
    "rel_tol": (float, 1e-6, "relative accuracy required of f_exact; below the "
                             "accuracy of its closed-form evaluation (1e-12) "
                             "every command exits 3 before writing anything",
                None),
}

_NORM_MAP = {"raw": "raw", "area": "unit-area", "peak": "unit-peak"}


class ConfigError(ValueError):
    pass


class AccuracyError(RuntimeError):
    """Requested accuracy finer than the library's stated accuracy."""


def _parse_config_file(path):
    values, first_line = {}, {}
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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} "
                              f"(first on line {first_line[key]})")
        values[key], first_line[key] = raw, lineno
    return values


def _coerce(key, raw):
    kind, default = _KEYS[key][:2]
    if raw == "" or raw.lower() == "none":
        # none keeps a default of None; phi0 may be left to theta0
        if default is not None and key != "phi0":
            raise ConfigError(f"config key {key!r} needs a value, got {raw!r}")
        return None
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from None


def resolve_config(args):
    """Defaults, overridden by the --config file, overridden by flags, checked."""
    values = {key: spec[1] for key, spec in _KEYS.items()}
    explicit = set()
    if args.config is not None:
        for k, raw in _parse_config_file(args.config).items():
            values[k] = _coerce(k, raw)
            if values[k] is not None:
                explicit.add(k)
    for k in _KEYS:
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
    cfg = argparse.Namespace(**values)
    for name, (kind, *_) in _KEYS.items():
        value = getattr(cfg, name)
        if kind is float and value is not None and not math.isfinite(value):
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
    except cr.WavelengthRangeError as exc:
        raise ConfigError(f"lambda_p = {cfg.lambda_p!r}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return disp, params


def _outdir(cfg):
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _header(title, cfg, params=None, **resolved):
    """Title, the echo of every key but out, and the values resolved from them."""
    lines = [title, "config: " + " ".join(f"{k}={getattr(cfg, k)!r}"
                                          for k in _KEYS if k != "out")]
    if params is not None:
        resolved = {"theta0": params.theta0, "n_o": params.n_o, **resolved}
        lines.append("resolved: " + " ".join(f"{k}={v!r}"
                                             for k, v in resolved.items()))
    return lines


def _write_table(path, header_lines, columns, names):
    write_table(path, [*header_lines, "columns: " + " ".join(names)], columns)


def _phase_matches(disp, phis, lambda_p):
    """Index difference and cone angle (nan where no cone) at each cut angle."""
    matches = [cr.phase_match(disp, cr.CutConfig(p, lambda_p)) for p in phis]
    return (np.array([r.delta_n for r in matches]),
            np.array([math.nan if r.theta0 is None else r.theta0
                      for r in matches]))


def cmd_dispersion(cfg):
    """Index difference and cone angle tables."""
    disp = cr.load_crystal(cfg.crystal)
    phis = np.linspace(0.0, 1.2, cfg.grid)
    phis_fit = np.linspace(max(cr.FIT_THRESHOLD + 1e-6, 0.51), 1.2, cfg.grid)
    try:
        dn, theta = _phase_matches(disp, phis, cfg.lambda_p)
        exact = _phase_matches(disp, phis_fit, cfg.lambda_p)[1]
        root = cr.collinear_cut_angle(disp, cfg.lambda_p)
    except cr.WavelengthRangeError as exc:
        raise ConfigError(f"lambda_p = {cfg.lambda_p!r}: {exc}") from None
    except cr.NoCollinearRootError as exc:
        raise ConfigError(f"crystal {disp.name} has no collinear cut at "
                          f"lambda_p = {cfg.lambda_p!r}: {exc}") from None
    fit = np.array([cr.opening_angle_fit(p) for p in phis_fit])

    out = _outdir(cfg)
    header = _header(f"biphoton dispersion ({disp.name})", cfg)
    _write_table(out / "index_difference.dat", header, [phis, dn],
                 ["phi0_rad", "delta_n"])
    _write_table(out / "cone_angle.dat", header, [phis, theta],
                 ["phi0_rad", "theta0_rad"])
    _write_table(out / "cone_angle_fit.dat", header,
                 [phis_fit, fit, exact, (fit - exact) / exact],
                 ["phi0_rad", "fit_rad", "exact_rad", "rel_residual"])
    print(f"collinear cut angle: {root:.6f} rad")
    print(f"wrote 3 tables to {out}")
    return EXIT_OK


def cmd_fcurve(cfg):
    """Difference-momentum distribution tables."""
    _, params = _load_setup(cfg)
    out = _outdir(cfg)
    header = _header("biphoton difference-momentum distribution", cfg, params)

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
    """Single, coincidence and plane-restricted curves."""
    _, params = _load_setup(cfg)
    out = _outdir(cfg)
    norm = _NORM_MAP[cfg.normalize]
    header = _header("biphoton reduced distributions", cfg, params)

    grid = dist.default_kappa_grid(params, cfg.grid)
    single = dist.single_particle_curve(grid, params).normalized(norm)
    single.write(out / "single_particle.dat", extra_header=header)

    coinc = dist.coincidence_curve(cfg.k2x, params).normalized(norm)
    coinc.write(out / "coincidence.dat", extra_header=header)

    plane = dist.plane_restricted_curve(grid, params).normalized(norm)
    plane.write(out / "plane_restricted.dat", extra_header=header)

    text = _report_text(params, single, plane)
    (out / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    print(f"wrote distribution curves to {out}")
    return EXIT_OK


def cmd_scan(cfg):
    """Analytic and Monte-Carlo detector scans."""
    _, params = _load_setup(cfg)
    try:
        ring = rs.ring_from_params(params, cfg.z)
    except rs.NoRingError as exc:
        raise ConfigError(str(exc)) from None
    out = _outdir(cfg)
    slit = cfg.slit if cfg.slit is not None else 0.5 * ring.delta_r
    header = _header("biphoton detector scan", cfg, params, r0_cm=ring.r0,
                     delta_r_cm=ring.delta_r, slit_cm=slit)

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
    """Widths and entanglement ratio."""
    _, params = _load_setup(cfg)
    out = _outdir(cfg)
    grid = dist.default_kappa_grid(params, min(cfg.grid, 1201))
    single = dist.single_particle_curve(grid, params).normalized("unit-area")
    plane = dist.plane_restricted_curve(grid, params).normalized("unit-area")
    text = _report_text(params, single, plane)
    (out / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


COMMANDS = {"dispersion": cmd_dispersion, "fcurve": cmd_fcurve,
            "distributions": cmd_distributions, "scan": cmd_scan,
            "report": cmd_report}


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a configuration error, not SystemExit."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="biphoton",
        description="Momentum distributions of noncollinear degenerate photon pairs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key = value config file")
        for key, (kind, _, text, commands) in _KEYS.items():
            if commands is None or name in commands:
                p.add_argument("--" + key.replace("_", "-"), type=kind, help=text)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(resolve_config(args))
    except (ConfigError, cr.CrystalFileError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AccuracyError as exc:
        print(f"numerical accuracy failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
