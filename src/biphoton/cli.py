"""Command-line front end.

Commands produce plain text tables (`#` header lines, then rows of
numbers) that any plotting tool, or np.loadtxt, can read; no rendering is
built in.  Every table has one header layout: its title, the `# config:`
echo of every key (the seed included), the `# resolved:` values derived
from them (in all but dispersion's tables) and a `# columns:` line naming
its columns.  A rerun with the same arguments is byte-identical.

Each config key is declared once, in _KEYS: its type, default and help
text.  The flags (`--lambda-p` for `lambda_p`), the command-line and
config-file parsing, the `# config:` echo and the resolved configuration
(a types.SimpleNamespace) all come from that table, so every key is a
flag and a config-file key of every command.  Config files and crystal
files are read by one reader, crystal.read_keys.  A command line is one
command and flags in any order; a flag, in full or as a unique prefix
(`--k2` for `--k2x`), takes `--flag=VALUE` or else the next token,
whatever it starts with (`--k2x -1e4`); the last of a repeated flag wins.

`dispersion` phase-matches and fits each grid of cut angles in one array
call, so --grid grows its memory only by its float columns.

Configuration precedence: command-line flags override config-file
entries, which override the built-in defaults (the moderate waist-and-
crystal parameter set: lambda_p 0.4047 um, phi0 0.5275 rad, waist and
length 0.1 cm, z 100 cm).

Exit codes: 0 success, 2 configuration error.  The model's domain, stated
in wavefunction, is checked as SpdcParams and the ring are built.  Also
refused: an unknown or ambiguous flag, a flag with no value or a value
its key's type cannot parse, a missing, unknown or second command, a
|k2x| not below pi/lambda_p, a pump wavelength outside the crystal's
range or at a pole of its Sellmeier form, a --rel-tol finer than G(u) is
evaluated to, a --grid too big to allocate, for `dispersion` a crystal
with no collinear cut, for `scan` a cone no wider than its ring's
thickness, and an --out that cannot be made a directory.  Each
command computes all it writes before it makes the output directory, so
every refusal comes before any output.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import crystal as cr
from . import distributions as dist
from . import ringscan as rs
from .curves import write_table
from .wavefunction import SpdcParams
from pathlib import Path
from types import SimpleNamespace

EXIT_OK = 0
EXIT_CONFIG = 2

# key: (type, default, help); the order is the order of the `# config:` echo
_KEYS = {
    "crystal": (str, None, "crystal coefficient file (default: bundled BBO)"),
    "lambda_p": (float, 0.4047, "pump wavelength, um"),
    "phi0": (float, 0.5275, "cut angle, rad"),
    "theta0": (float, None, "explicit cone opening angle, rad; replaces the "
                            "default phi0"),
    "waist": (float, 0.1, "pump waist, cm"),
    "length": (float, 0.1, "crystal length, cm"),
    "z": (float, 100.0, "crystal-detector distance, cm"),
    "grid": (int, 2001, "grid resolution; scan histograms into at most 241 lines"),
    "seed": (int, 12345, "64-bit sampling seed (scan)"),
    "out": (str, "out", "output directory"),
    "normalize": (str, "area", "curve normalization: area, peak or raw"),
    "pairs": (int, 1_000_000, "Monte-Carlo pair count (scan)"),
    "k2x": (float, 0.0, "fixed partner momentum, cm^-1 (distributions)"),
    "slit": (float, None, "D2 slit width, cm (scan; default: delta_r/2)"),
    "rel_tol": (float, 1e-6, "relative accuracy required of f_exact; below the "
                             "accuracy of its closed-form evaluation (1e-12) "
                             "every command exits 2 before writing anything"),
}

# flag: (key, type, help), --config first and then every key's own flag
_FLAGS = {"--config": ("config", str, "key = value config file"),
          **{"--" + key.replace("_", "-"): (key, kind, text)
             for key, (kind, _, text) in _KEYS.items()}}


class ConfigError(ValueError):
    pass


def _parse_config_file(path):
    """{key: value} of a --config file, each value of its key's type or None."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None

    def fail(message, line):
        return ConfigError(f"{path}:{line}: {message}")

    values = {}
    for key, (raw, line) in cr.read_keys(text, _KEYS, fail).items():
        kind, default, _ = _KEYS[key]
        if raw == "" or raw.lower() == "none":
            # none keeps a default of None
            if default is not None:
                raise fail(f"config key {key!r} needs a value, got {raw!r}", line)
            values[key] = None
            continue
        try:
            values[key] = kind(raw)
        except ValueError:
            raise fail(f"config key {key!r}: cannot parse {raw!r}", line) from None
    return values


def resolve_config(args):
    """Defaults, overridden by the --config file, overridden by flags, checked."""
    values = {key: spec[1] for key, spec in _KEYS.items()}
    explicit = set()
    if args.config is not None:
        for k, v in _parse_config_file(args.config).items():
            values[k] = v
            if v is not None:
                explicit.add(k)
    for k in _KEYS:
        v = getattr(args, k)
        if v is not None:
            values[k] = v
            explicit.add(k)
    if "phi0" in explicit and "theta0" in explicit:
        raise ConfigError("give only one of phi0 / theta0")
    if values["theta0"] is not None:
        # an explicit cone angle overrides the built-in default cut angle
        values["phi0"] = None
    cfg = SimpleNamespace(**values)
    for name, (kind, _, _) in _KEYS.items():
        value = getattr(cfg, name)
        if kind is float and value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    for name in ("lambda_p", "waist", "length", "z", "rel_tol"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if cfg.rel_tol < dist._G_REL_ERR:
        raise ConfigError(f"rel_tol = {cfg.rel_tol!r} is finer than G(u) is "
                          f"evaluated to ({dist._G_REL_ERR:g})")
    if cfg.slit is not None and cfg.slit <= 0:
        raise ConfigError("slit must be positive")
    # past pi/lambda_p, the vacuum wavenumber of a photon, its partner is evanescent
    k_photon = math.pi / (cfg.lambda_p * cr.MICRON_TO_CM)
    if abs(cfg.k2x) >= k_photon:
        raise ConfigError("k2x must be below the photon wavenumber pi/lambda_p "
                          f"in magnitude, got {cfg.k2x!r}")
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {cfg.seed!r}")
    if cfg.grid < 3:
        raise ConfigError("grid must hold at least 3 points")
    if cfg.pairs <= 0:
        raise ConfigError("pairs must be positive")
    if cfg.normalize not in ("area", "peak", "raw"):
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
    return params


def _outdir(cfg):
    """The output directory, made if missing; a path that cannot be one exits 2."""
    path = Path(cfg.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out = {cfg.out!r}: {exc}") from None
    return path


def _grid(cfg, make):
    """make(cfg.grid), the command's grid; a size numpy refuses exits 2."""
    try:
        return make(cfg.grid)
    except ValueError as exc:
        raise ConfigError(f"grid = {cfg.grid}: {exc}") from None


def _header(title, cfg, params=None, **resolved):
    """Title, the echo of every key but out, and the values resolved from them."""
    lines = [title, "config: " + " ".join(f"{k}={getattr(cfg, k)!r}"
                                          for k in _KEYS if k != "out")]
    if params is not None:
        resolved = {"theta0": params.theta0, "n_o": params.n_o, **resolved}
        lines.append("resolved: " + " ".join(f"{k}={v!r}"
                                             for k, v in resolved.items()))
    return lines


def _columns(header, *names):
    """The header lines of a table: header, then its column names."""
    return [*header, "columns: " + " ".join(names)]


def cmd_dispersion(cfg):
    """Index difference and cone angle tables."""
    disp = cr.load_crystal(cfg.crystal)
    try:
        # reads every index phase_match reads, so the calls below cannot fail
        root = cr.collinear_cut_angle(disp, cfg.lambda_p)
    except cr.WavelengthRangeError as exc:
        raise ConfigError(f"lambda_p = {cfg.lambda_p!r}: {exc}") from None
    except cr.NoCollinearRootError as exc:
        raise ConfigError(f"crystal {disp.name} has no collinear cut at "
                          f"lambda_p = {cfg.lambda_p!r}: {exc}") from None
    # the law's table runs from the cut to where the cone opens: up to 1.2 rad
    # (or the cut alone) when n_o > n_e at the pump, as in BBO, else down to 0
    toward = (0.0 if cr.index_extraordinary(disp, cfg.lambda_p)
              > cr.index_ordinary(disp, cfg.lambda_p) else max(root, 1.2))
    phis, phis_fit = _grid(cfg, lambda n: (np.linspace(0.0, 1.2, n),
                                           np.linspace(root, toward, n)))
    delta_n, theta0 = cr.phase_match(disp, phis, cfg.lambda_p)
    _, exact = cr.phase_match(disp, phis_fit, cfg.lambda_p)
    fit = cr.opening_angle_fit(disp, phis_fit, cfg.lambda_p)
    # at the cut both angles vanish: the residual's limit there is 0
    residual = np.divide(fit - exact, exact, out=np.zeros_like(fit), where=fit > 0)

    out = _outdir(cfg)
    header = _header(f"biphoton dispersion ({disp.name})", cfg)
    write_table(out / "index_difference.dat",
                _columns(header, "phi0_rad", "delta_n"), [phis, delta_n])
    write_table(out / "cone_angle.dat",
                _columns(header, "phi0_rad", "theta0_rad"), [phis, theta0])
    write_table(out / "cone_angle_fit.dat",
                _columns(header, "phi0_rad", "fit_rad", "exact_rad", "rel_residual"),
                [phis_fit, fit, exact, residual])
    print(f"collinear cut angle: {root:.6f} rad")
    print(f"wrote 3 tables to {out}")
    return EXIT_OK


def cmd_fcurve(cfg):
    """Difference-momentum distribution tables."""
    params = _load_setup(cfg)

    def columns(kap):
        # cone_interior is f_approx as it is, in every table: +inf exactly at
        # the cone edge (at kappa = 0 when theta0 = 0), never NaN
        ks = params.k_from_kappa(kap)
        return [kap, dist.f_exact(ks, params), dist.f_approx(ks, params)]

    tables = {"difference_distribution.dat": columns(
        _grid(cfg, lambda n: dist.default_kappa_grid(params, n)))}
    if params.theta0 > 0:
        two_theta = 2.0 * params.theta0
        tables["difference_distribution_edge.dat"] = columns(
            np.linspace(two_theta - 0.01, two_theta + 0.004, 801))

    out = _outdir(cfg)
    header = _columns(_header("biphoton difference-momentum distribution", cfg,
                              params), "kappa_minus", "exact", "cone_interior")
    for name, columns in tables.items():
        write_table(out / name, header, columns)
    print(f"wrote difference-momentum tables to {out}")
    return EXIT_OK


def _report(cfg, tables):
    """Writes and prints report.txt from the single and in-plane curves on the --grid
    points as they are (no width depends on scale); with tables, the curve tables too."""
    params = _load_setup(cfg)
    grid = _grid(cfg, lambda n: dist.default_kappa_grid(params, n))
    single = dist.single_particle_curve(grid, params)
    plane = dist.plane_restricted_curve(grid, params)
    text = dist.entanglement_report(params, single, plane)
    curves = {name: curve.normalized(cfg.normalize) for name, curve in (
        ("single_particle", single), ("coincidence", dist.coincidence_curve(cfg.k2x, params)),
        ("plane_restricted", plane))} if tables else {}
    out = _outdir(cfg)
    header = _header("biphoton reduced distributions", cfg, params)
    for name, curve in curves.items():
        curve.write(out / f"{name}.dat", _columns(header, "kappa", name))
    (out / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return out


def cmd_distributions(cfg):
    """Single, coincidence and plane-restricted curves."""
    print(f"wrote distribution curves to {_report(cfg, tables=True)}")
    return EXIT_OK


def cmd_scan(cfg):
    """Monte-Carlo detector scans, compared with the single-photon curve."""
    params = _load_setup(cfg)
    try:
        r0, delta_r = rs.ring_from_params(params, cfg.z)
    except ValueError as exc:  # a z outside the far field, or NoRingError
        raise ConfigError(str(exc)) from None
    slit = cfg.slit if cfg.slit is not None else 0.5 * delta_r
    n_bins = min(cfg.grid, 241)
    positions = 0.5 * dist.default_kappa_grid(params, n_bins) * cfg.z

    sigma_x = cfg.z * params.lambda_cm / (math.pi * math.sqrt(2.0) * params.w_p)
    cpos = -r0 + np.linspace(-6.0, 6.0, 61) * sigma_x

    single = np.zeros(positions.size, np.int64)
    paired = np.zeros(cpos.size, np.int64)
    # one block of pairs at a time, each drawn into the same workspace, so
    # memory does not grow with --pairs and no block allocates
    work = np.empty(rs._workspace_size(min(rs._BLOCK, cfg.pairs)))
    for block, start in enumerate(range(0, cfg.pairs, rs._BLOCK)):
        m = min(rs._BLOCK, cfg.pairs - start)
        batch = rs.sample_pairs(params, cfg.z, m, cfg.seed, block=block, out=work)
        single += rs.scan_single(batch, positions).y.astype(np.int64)
        paired += rs.scan_coincidence(batch, r0, slit, cpos).y.astype(np.int64)

    kappas = positions / cfg.z
    theory = dist.single_particle_curve(kappas, params).y

    def ua(v):
        # unit area; a scan that captured no pairs stays all zero
        area = np.trapezoid(v, kappas)
        return v / area if area else v

    mc_ua, theory_ua = ua(single), ua(theory)

    out = _outdir(cfg)
    header = _header("biphoton detector scan", cfg, params, r0_cm=r0,
                     delta_r_cm=delta_r, slit_cm=slit)
    for name, mode, x, counts in (("scan_single_mc", "single-mc", positions, single),
                                  ("scan_coincidence", "coincidence", cpos, paired)):
        rs.ScanResult(x=x, y=counts).write(out / f"{name}.dat",
                                           _columns(header, "x_cm", "counts"))
        if not counts.any():
            print(f"warning: {mode} scan captured no pairs", file=sys.stderr)
    write_table(out / "scan_comparison.dat",
                _columns(header, "kappa", "mc_ua", "theory_ua", "abs_diff_mc"),
                [kappas, mc_ua, theory_ua, np.abs(mc_ua - theory_ua)])
    print(f"ring: r0 = {r0:.6g} cm, delta_r = {delta_r:.6g} cm")
    print(f"wrote scan tables to {out}")
    return EXIT_OK


def cmd_report(cfg):
    """Widths and entanglement ratio."""
    _report(cfg, tables=False)
    return EXIT_OK


COMMANDS = {"dispersion": cmd_dispersion, "fcurve": cmd_fcurve,
            "distributions": cmd_distributions, "scan": cmd_scan,
            "report": cmd_report}


def parse_args(argv):
    """argv's command and the value of --config and of every _KEYS flag, None
    where not given; -h or --help prints the usage and exits 0."""
    args = {"config": None, **dict.fromkeys(_KEYS)}
    commands = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            print("usage: biphoton [-h] COMMAND [--flag VALUE | --flag=VALUE ...]",
                  "A unique prefix of a flag will do.", "",
                  *(f"  {name:<18}{func.__doc__}" for name, func in COMMANDS.items()),
                  *(f"  {flag + ' ' + kind.__name__.upper():<18}{text}"
                    for flag, (_, kind, text) in _FLAGS.items()), sep="\n")
            raise SystemExit(EXIT_OK)
        if not token.startswith("-"):
            commands.append(token)
            continue
        name, eq, value = token.partition("=")
        flags = [flag for flag in _FLAGS if flag.startswith(name)]
        if len(flags) != 1:
            raise ConfigError(f"ambiguous flag {name}: {', '.join(flags)}" if flags
                              else f"unknown flag {name}")
        key, kind, _ = _FLAGS[flags[0]]
        value = value if eq else next(tokens, None)
        if value is None:
            raise ConfigError(f"argument {flags[0]}: expected one argument")
        try:
            args[key] = kind(value)
        except ValueError:
            raise ConfigError(f"argument {flags[0]}: invalid {kind.__name__} "
                              f"value: {value!r}") from None
    if len(commands) != 1 or commands[0] not in COMMANDS:
        raise ConfigError(f"give one command of {', '.join(COMMANDS)}; got "
                          + (" ".join(map(repr, commands)) or "none"))
    return SimpleNamespace(command=commands[0], **args)


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        cfg = resolve_config(args)
        try:
            return COMMANDS[args.command](cfg)
        except MemoryError as exc:
            # --grid sizes every array; --pairs runs in constant memory
            raise ConfigError(f"grid = {cfg.grid}: {exc}") from None
    except (ConfigError, cr.CrystalFileError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
