import compileall
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from biphoton import (CrystalFileError, Curve, SpdcParams, cli, collinear_cut_angle,
                      default_kappa_grid, load_crystal, sample_pairs, scan_single,
                      single_particle_curve)
from biphoton import crystal as cr, distributions as dist
from biphoton.crystal import MICRON_TO_CM

from conftest import argmax_x, traced_peak, write_table_rows


def run(*argv):
    return cli.main(list(argv))


def load_table(path):
    return np.loadtxt(path)


def load_curve(path):
    return Curve(*np.loadtxt(path, unpack=True))


def header(path):
    """A table's `#` lines, without their `# ` prefix."""
    with open(path, encoding="utf-8") as fh:
        return [line[2:].rstrip("\n") for line in fh if line.startswith("#")]


def config_echo(path):
    """The key=value items of a table's `# config:` line."""
    return header(path)[1].removeprefix("config: ").split()


def test_dispersion_command(tmp_path):
    out = tmp_path / "disp"
    assert run("dispersion", "--out", str(out), "--grid", "601") == 0
    dn = load_table(out / "index_difference.dat")
    phi, delta = dn[:, 0], dn[:, 1]
    # sign change brackets the collinear cut angle
    sign_flips = np.where(np.diff(np.sign(delta)) != 0)[0]
    assert len(sign_flips) == 1
    i = sign_flips[0]
    root = phi[i] - delta[i] * (phi[i + 1] - phi[i]) / (delta[i + 1] - delta[i])
    assert abs(root - 0.5008) < 1e-3
    # noncollinear side is negative
    assert delta[np.argmin(np.abs(phi - 0.7))] < 0.0

    cone = load_table(out / "cone_angle.dat")
    theta_07 = cone[np.argmin(np.abs(cone[:, 0] - 0.7)), 1]
    assert abs(theta_07 - 0.28) < 5e-3

    fit = load_table(out / "cone_angle_fit.dat")
    sel = (fit[:, 0] >= 0.51) & (fit[:, 0] <= 0.9)
    assert np.max(np.abs(fit[sel, 3])) < 0.05


def test_dispersion_law_starts_at_the_cut(tmp_path, bbo):
    # at 0.5 um the collinear cut is 0.4168 rad, far below BBO's 0.5008 at
    # 405 nm; the law's table starts there and its residual stays below 9%
    # (8.3%) over the first 0.4 rad
    out = tmp_path / "d"
    assert run("dispersion", "--lambda-p", "0.5", "--out", str(out)) == 0
    fit = load_table(out / "cone_angle_fit.dat")
    cut = collinear_cut_angle(bbo, 0.5)
    assert round(cut, 4) == 0.4168
    assert fit[0, 0] == float("%.12e" % cut) and fit[0, 1] == 0.0
    assert np.all(np.diff(fit[:, 0]) > 0.0) and fit[-1, 0] == 1.2
    first = fit[:, 0] <= cut + 0.4
    assert np.max(np.abs(fit[first, 3])) < 0.09
    # a crystal whose cut lies past the table's 1.2 rad: one angle, the cut
    late = tmp_path / "late.crystal"
    late.write_text("name = Late\nsellmeier_o = 2.7405 0.0184 0.0179 0.0155\n"
                    "sellmeier_e = 2.665 0.0128 0.0156 0.0044\n"
                    "valid_range = 0.22 1.06\n")
    assert collinear_cut_angle(load_crystal(late), 0.4047) > 1.2
    assert run("dispersion", "--crystal", str(late), "--grid", "11",
               "--out", str(tmp_path / "late")) == 0
    fit = load_table(tmp_path / "late" / "cone_angle_fit.dat")
    assert np.all(fit[:, 0] == fit[0, 0]) and np.all(fit[:, [1, 3]] == 0.0)


def test_dispersion_law_of_a_positive_crystal(tmp_path):
    # n_e > n_o at the pump: the cone opens below the cut, 0.6658 rad at
    # 405 nm, so the law's table runs from the cut down to 0 rad, where
    # phase_match gives 0.31 rad; no NaN and no warning (the suite turns
    # warnings into errors), and the law within 5% over 0.15 rad (3.3%)
    toy = tmp_path / "positive.crystal"
    toy.write_text("name = Positive\nsellmeier_o = 2.7405 -0.0184 0.0179 0.0\n"
                   "sellmeier_e = 2.8 0.0128 0.0156 0.0044\n"
                   "valid_range = 0.22 1.06\n")
    out = tmp_path / "pos"
    assert run("dispersion", "--crystal", str(toy), "--out", str(out)) == 0
    fit = load_table(out / "cone_angle_fit.dat")
    cut = collinear_cut_angle(load_crystal(toy), 0.4047)
    assert round(cut, 4) == 0.6658
    assert not np.isnan(fit).any()
    assert fit[0, 0] == float("%.12e" % cut) and fit[0, 1] == 0.0
    assert np.all(np.diff(fit[:, 0]) < 0.0) and fit[-1, 0] == 0.0
    near = fit[:, 0] >= cut - 0.15
    assert np.max(np.abs(fit[near, 3])) < 0.05


def test_fcurve_command(tmp_path):
    out = tmp_path / "f"
    assert run("fcurve", "--out", str(out), "--grid", "301") == 0
    main_table = load_table(out / "difference_distribution.dat")
    kap, exact, approx = main_table[:, 0], main_table[:, 1], main_table[:, 2]
    mid = np.abs(kap) < 0.15
    assert np.max(np.abs(exact[mid] / approx[mid] - 1.0)) < 1e-2
    assert (out / "difference_distribution_edge.dat").exists()


def test_distributions_command(tmp_path):
    out = tmp_path / "d"
    assert run("distributions", "--out", str(out), "--grid", "601") == 0
    for name in ("single_particle.dat", "coincidence.dat",
                 "plane_restricted.dat", "report.txt"):
        assert (out / name).exists()
    single = load_curve(out / "single_particle.dat")
    assert "normalize='area'" in config_echo(out / "single_particle.dat")
    assert abs(single.area() - 1.0) < 1e-6
    report = (out / "report.txt").read_text()
    values = {}
    for line in report.splitlines():
        key, _, rest = line.partition(":")
        try:
            values[key.strip()] = float(rest.split()[0])
        except (ValueError, IndexError):
            continue
    # defaults run the phase-matched cut (theta0 = 0.10005); widths follow it
    assert values["single-photon width"] == pytest.approx(5489.0, rel=2e-3)
    assert values["coincidence width"] == 5.0
    assert values["width ratio R"] == pytest.approx(1098.0, abs=3.0)
    assert "noncollinear" in report


def test_distributions_cone_angle_sweep(tmp_path):
    # shrinking cone angle: double peak -> flat top -> single bell
    shapes = {}
    for th in ("0.04", "0.02", "0.0"):
        out = tmp_path / f"sweep{th}"
        assert run("distributions", "--theta0", th, "--out", str(out),
                   "--grid", "601", "--normalize", "peak") == 0
        c = load_curve(out / "single_particle.dat")
        shapes[th] = c
    c = shapes["0.04"]
    center = c.y[len(c.y) // 2]
    assert center < 0.95 * c.peak()          # visible interior dip
    assert abs(abs(argmax_x(c)) - 0.0348) < 5e-3
    c = shapes["0.02"]
    assert c.y[len(c.y) // 2] > 0.98 * c.peak()   # flat top
    c = shapes["0.0"]
    assert abs(argmax_x(c)) <= c.x[1] - c.x[0]   # single bell at zero


def test_scan_command(tmp_path):
    out = tmp_path / "s"
    assert run("scan", "--out", str(out), "--pairs", "100000",
               "--grid", "201") == 0
    assert {p.name for p in out.iterdir()} == {
        "scan_single_mc.dat", "scan_coincidence.dat", "scan_comparison.dat"}
    header = (out / "scan_single_mc.dat").read_text().splitlines()[:9]
    assert any("r0_cm=10.0" in line for line in header)
    lines = (out / "scan_comparison.dat").read_text().splitlines()
    assert "# columns: kappa mc_ua theory_ua abs_diff_mc" in lines
    comparison = load_table(out / "scan_comparison.dat")
    assert comparison.shape[1] == 4
    assert np.all(np.isfinite(comparison))


# SHA-256 of scan_single_mc.dat, scan_coincidence.dat and scan_comparison.dat
# for 2 * 65536 + 12345 pairs of the stream that draws no y, as np.histogram
# of the float64 positions and the plain float64 slit test write them (the
# scans swapped for those two, the same digests); scan_comparison.dat as G(u)
# on two bands writes its theory_ua column, in its four columns kappa mc_ua
# theory_ua abs_diff_mc; each under the one header layout of title, config:,
# resolved: and columns:
_SCAN_DIGESTS = {
    ("A", 1): (
        "894ba63d0e5118c320fc48adc02f084f05c25d45d431fc8d20dfbd9be5c2c9a7",
        "3e1399d57127510976ce43202c9ea97cd38655c55205dfec4ae72261e42956ff",
        "166352dcbf18acbbd4b4f448c5db524ba9ca62fd3b426df0ade728c0ea9e02c7"),
    ("A", 20240801): (
        "c09b72bd7c6bb3ff81decc760fcf8014abf3159bc578fb60b12c0fa260b2c9fb",
        "4d111f1ae8d08a9ba8fed6a1f96c4804f970676620086b2dab5810efb6260d61",
        "291f7acb621257133ff25ff7fe09abf1741361c86abba24379a0fcf5f447a1c1"),
    ("B", 1): (
        "825c6ac3e221658532a30661000c6f0a71c8427a5b1eb426cc65055776c087a3",
        "4ea19cc310fe4f5abc6b360dca5c9b2d6c9737bca3e70c34013cf2a89da899d3",
        "1f3e1b68b76ae8a19d26a4b27510855f98c97fbe6c66eac0b9dfd3434675f5db"),
    ("B", 20240801): (
        "809c5c6c0bae79e530de56efa6cfaf87ad33277b4429ebbb8b8714033f9960eb",
        "f55cdbbc7e81e29f68c4de62b6d0b1ba7c3723d677df4569ddcafbc1ad8279e4",
        "a0c6129925acdb45c383c0d4e5859b5dbf960ae06f135e1664c0f3a2fbe05c55"),
    ("default", 1): (
        "37cec6efa63c0aff8bb02202035b54ba1537dffe89585d01040344ded9bea0a7",
        "154c99c622bc5e5791b1e64c0a69ad0d487dabe57a92bb26336fb4bb01c51176",
        "e4eaf760b4b5165c25e23852db3a084d7f9384dcc8a11f33373eaf8ae0eecb6f"),
    ("default", 20240801): (
        "e5e3410d89a2016feecd1f6e2cd22c0e40f378044124929f32b58694adb77824",
        "8d280906e1623df91fbc7f0cec7c962207234deda6ec9401bec479b26897e9b2",
        "9f3c60f07b1149d714e28f978d81c4d992e814aa09c19332cae2fe0e77683ea3"),
}
_SCAN_CONFIGS = {"A": ["--theta0", "0.28", "--waist", "0.5", "--length", "0.5"],
                 "B": ["--theta0", "0.1", "--waist", "0.1", "--length", "0.1"],
                 "default": ["--phi0", "0.5275", "--waist", "0.1", "--length", "0.1"]}


@pytest.mark.parametrize("config, seed", sorted(_SCAN_DIGESTS))
def test_scan_tables_keep_their_digests(tmp_path, config, seed):
    out = tmp_path / "s"
    assert run("scan", *_SCAN_CONFIGS[config], "--pairs", "143417",
               "--seed", str(seed), "--out", str(out)) == 0
    names = ("scan_single_mc.dat", "scan_coincidence.dat", "scan_comparison.dat")
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in names)
    assert digests == _SCAN_DIGESTS[config, seed]


_PEAK_RSS = """
import contextlib, io, json, sys
from biphoton import cli
# each argv list in turn in this one interpreter, as the benchmark's pass does;
# the peak resident set in kB after each
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(f"{argv} failed")
    with open("/proc/self/status", encoding="ascii") as fh:
        print(next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")))
"""


def _peaks_mb(tmp_path, *argvs):
    """The peak resident set in MB after each command of one fresh interpreter.

    Like the benchmark's passes, the interpreter imports the package from
    compiled bytecode, here a compiled copy in tmp_path: compiling the
    sources at import would change the heap the measurement sees.
    """
    src = tmp_path / "src"
    shutil.copytree(os.path.dirname(os.path.abspath(cli.__file__)),
                    src / "biphoton", ignore=shutil.ignore_patterns("__pycache__"))
    assert compileall.compile_dir(src, quiet=1)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=300, check=True)
    return [int(v) / 1024.0 for v in proc.stdout.split()]


_needs_proc_status = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"),
    reason="needs /proc/self/status for the peak resident set")


@_needs_proc_status
def test_scan_memory_does_not_grow_with_pairs(tmp_path):
    # the scan histograms fixed-size blocks, so ten times the pairs must
    # not raise the peak resident set
    peaks_mb = [_peaks_mb(tmp_path / pairs, ["scan", "--pairs", pairs, "--out",
                                             str(tmp_path / pairs / "out")])[0]
                for pairs in ("200000", "2000000")]
    assert abs(peaks_mb[1] - peaks_mb[0]) < 20.0, peaks_mb


@_needs_proc_status
def test_repeated_scans_do_not_grow_the_peak(tmp_path):
    # every scan draws its blocks into one workspace and frees it at its end,
    # so later scans in the same process reuse that memory; one that frees
    # and requests its block buffer anew each block leaves the heap 4 MB higher
    peaks_mb = _peaks_mb(tmp_path, *[
        ["scan", *_SCAN_CONFIGS[config], "--pairs", "200000", "--out",
         str(tmp_path / str(i))] for i, config in enumerate("ABA")])
    assert peaks_mb[2] - peaks_mb[0] <= 1.5, peaks_mb


_PAGE_FAULTS = """
import resource, sys
from biphoton import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
if cli.main(sys.argv[1:]) != 0:
    sys.exit("scan failed")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_scan_reuses_block_memory(tmp_path):
    # each block of pairs is drawn into the memory the previous one used; a
    # block handed back to the system faults its 3.7 MB in again, about 900
    # page faults, so the 28 extra blocks here would add some 25 000
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    faults = []
    for pairs in ("200000", "2000000"):
        proc = subprocess.run(
            [sys.executable, "-c", _PAGE_FAULTS, "scan", "--pairs", pairs,
             "--out", str(tmp_path / pairs)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300, check=True)
        faults.append(int(proc.stdout.split()[-1]))
    assert faults[1] <= faults[0] + 4000, faults


def test_scan_holds_one_block_at_a_time(tmp_path):
    # three blocks of pairs peak no higher than one, but for the two summed
    # histograms (about 3 kB); a second live block would add 3.7 MB
    peaks = []
    for pairs in ("65536", "196608"):
        out = tmp_path / pairs
        peaks.append(traced_peak(run, "scan", "--pairs", pairs, "--out", str(out)))
        assert (out / "scan_comparison.dat").exists()
    assert peaks[1] <= peaks[0] + 64e3, peaks


def test_dispersion_memory_grows_by_columns_only(tmp_path):
    # phase matching takes whole arrays of cut angles, so 48 000 more angles
    # may cost at most 12 float64 arrays (the command holds about 9 at once);
    # one result object per angle cost about 300 bytes (37 arrays' worth)
    peaks = [traced_peak(run, "dispersion", "--grid", str(n), "--out",
                         str(tmp_path / str(n))) for n in (2001, 50001)]
    assert peaks[1] <= peaks[0] + 12 * 8 * (50001 - 2001), peaks


@pytest.mark.parametrize("command", ["fcurve", "distributions"])
def test_curve_memory_grows_by_columns_only(tmp_path, command):
    # 48 000 more grid points cost each command about 6 float64 arrays (its
    # grid, momenta, curves and their work arrays); the table writer
    # formats fixed row blocks, where a whole-table text buffer (21 bytes a
    # value) would add 2.6 arrays' worth per column on top
    peaks = [traced_peak(run, command, "--grid", str(n), "--out",
                         str(tmp_path / str(n))) for n in (2001, 50001)]
    assert peaks[1] <= peaks[0] + 8 * 8 * (50001 - 2001), peaks


_MODULES_LOADED = """
import contextlib, io, json, sys
from biphoton import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(f"{argv} failed")
print(json.dumps(sorted(sys.modules)))
"""


def test_commands_load_no_numpy_polynomial(tmp_path):
    # G's rule is a table of literals and its series is Horner's rule in
    # place, so no command loads numpy.polynomial (0.7 MB) or starts LAPACK
    # through leggauss's eigenvalue solve (1.3 MB); a fresh interpreter,
    # because the tests' own oracles import numpy.polynomial here
    argvs = [[command, "--grid", "201", "--out", str(tmp_path / command)]
             for command in ("fcurve", "distributions", "report")]
    argvs.append(["scan", "--pairs", "1000", "--grid", "201",
                  "--out", str(tmp_path / "scan")])
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_LOADED, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300, check=True)
    modules = json.loads(proc.stdout.splitlines()[-1])
    assert "biphoton.ringscan" in modules
    assert "numpy.polynomial" not in modules
    # the command line is parsed from _KEYS alone: no argparse, and so no
    # gettext or the locale module its first message lookup imports
    assert not {"argparse", "gettext", "locale"} & set(modules)


def test_report_command_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("waist = 0.3\nseed = 99\n# comment\n")
    out = tmp_path / "r"
    assert run("report", "--config", str(cfg), "--waist", "0.2",
               "--out", str(out), "--grid", "301") == 0
    text = (out / "report.txt").read_text()
    # waist 0.2 -> coincidence width 2.5 cm^-1 (flag beats config file)
    assert "2.5" in text
    captured = capsys.readouterr()
    assert "width ratio" in captured.out


def test_normalize_peak_flag(tmp_path, bbo):
    # peak gives a unit maximum; raw, the curve as computed, to the table's digits
    params = SpdcParams.from_crystal(bbo, 0.4047, 0.1, 0.1, phi0=0.5275)
    raw = single_particle_curve(default_kappa_grid(params, 301), params).y
    for mode in ("peak", "raw"):
        out = tmp_path / mode
        assert run("distributions", "--out", str(out), "--grid", "301",
                   "--normalize", mode) == 0
        c = load_curve(out / "single_particle.dat")
        assert f"normalize={mode!r}" in config_echo(out / "single_particle.dat")
        if mode == "peak":
            assert c.peak() == pytest.approx(1.0, rel=1e-12)
        else:
            assert [f"{v:.12e}" for v in c.y] == [f"{v:.12e}" for v in raw]


def test_config_errors(tmp_path, capsys):
    # unreadable crystal file
    assert run("report", "--crystal", str(tmp_path / "missing.crystal")) == 2
    # malformed crystal file reports the line
    bad = tmp_path / "bad.crystal"
    bad.write_text("name = X\nsellmeier_o = oops\n"
                   "sellmeier_e = 2.3730 0.0128 0.0156 0.0044\n"
                   "valid_range = 0.22 1.06\n")
    assert run("report", "--crystal", str(bad)) == 2
    assert f"{bad}:2: non-numeric value in sellmeier_o" in capsys.readouterr().err
    # malformed config file
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("nonsense\n")
    assert run("report", "--config", str(cfg)) == 2
    # a config value its key's type cannot parse
    cfg.write_text("seed = 7\ngrid = abc\n")
    capsys.readouterr()
    assert run("report", "--config", str(cfg)) == 2
    assert f"{cfg}:2: config key 'grid': cannot parse 'abc'" in capsys.readouterr().err
    # a grid too small to hold an interval and its midpoint
    assert run("fcurve", "--grid", "2", "--out", str(tmp_path / "g")) == 2
    assert "grid must hold at least 3 points" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()
    # both cone-angle routes given
    cfg2 = tmp_path / "conflict.cfg"
    cfg2.write_text("theta0 = 0.1\n")
    assert run("report", "--config", str(cfg2), "--phi0", "0.7") == 2
    # unphysical value
    assert run("report", "--waist", "-1.0") == 2
    # collinear-impossible cut
    assert run("report", "--phi0", "0.3") == 2
    # scan with no emission ring
    assert run("scan", "--theta0", "0.0", "--out", str(tmp_path / "x")) == 2
    assert not (tmp_path / "x").exists()
    # a config key given twice names both lines, before any output
    cfg3 = tmp_path / "twice.cfg"
    cfg3.write_text("waist = 0.3\nwaist = 0.2\n")
    capsys.readouterr()
    assert run("report", "--config", str(cfg3), "--out", str(tmp_path / "t")) == 2
    err = capsys.readouterr().err
    assert ":2: duplicate key 'waist' (first on line 1)" in err
    assert not (tmp_path / "t").exists()
    # identical o and e indices: no cone and no collinear cut at any angle
    flat = tmp_path / "flat.crystal"
    flat.write_text("name = Flat\nsellmeier_o = 2.7405 0.0184 0.0179 0.0155\n"
                    "sellmeier_e = 2.7405 0.0184 0.0179 0.0155\n"
                    "valid_range = 0.22 1.06\n")
    assert run("dispersion", "--crystal", str(flat), "--grid", "11",
               "--out", str(tmp_path / "d")) == 2
    err = capsys.readouterr().err
    assert "configuration error: crystal Flat" in err
    assert not (tmp_path / "d").exists()
    # a Sellmeier pole at the pump wavelength (0.4**2 == 0.16000000000000003)
    pole = tmp_path / "pole.crystal"
    pole.write_text("name = Pole\nsellmeier_o = 2.7405 0.0184 0.16000000000000003 "
                    "0.0155\nsellmeier_e = 2.3730 0.0128 0.0156 0.0044\n"
                    "valid_range = 0.22 1.06\n")
    for command in ("dispersion", "report"):
        assert run(command, "--crystal", str(pole), "--lambda-p", "0.4",
                   "--out", str(tmp_path / "p")) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: lambda_p = 0.4: ")
        assert captured.out == ""
        assert not (tmp_path / "p").exists()
    # a file that is not UTF-8 text, as a crystal file and as a config file
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"name = \xff\n")
    for flag in ("--crystal", "--config"):
        assert run("report", flag, str(binary), "--out", str(tmp_path / "b")) == 2
        assert "cannot read" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()
    # a number that parses but is not finite is refused on loading, with its line
    nan_file = tmp_path / "nan.crystal"
    nan_file.write_text("name = X\nsellmeier_o = nan 0.0184 0.0179 0.0155\n"
                        "sellmeier_e = 2.3730 0.0128 0.0156 0.0044\n"
                        "valid_range = 0.22 1.06\n")
    for command in ("dispersion", "report"):
        assert run(command, "--crystal", str(nan_file), "--out", str(tmp_path / "n")) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {nan_file}:2: sellmeier_o")
        assert captured.out == ""
        assert not (tmp_path / "n").exists()


def test_theta0_zero_distributions_ok(tmp_path):
    out = tmp_path / "c0"
    assert run("distributions", "--theta0", "0.0", "--out", str(out),
               "--grid", "301") == 0
    assert "collinear" in (out / "report.txt").read_text()


@pytest.mark.parametrize("setup", [
    ("--length", "100", "--waist", "0.001"),
    ("--length", "100", "--waist", "0.001", "--theta0", "0.05"),
    ("--waist", "0.0003"),
    ("--length", "100", "--waist", "0.0006"),
    ("--length", "30", "--waist", "0.001", "--theta0", "0.01"),
    ("--length", "100", "--waist", "0.0005", "--theta0", "0.01")])
def test_long_crystal_narrow_waist_writes_the_in_plane_curve(tmp_path, capsys, setup):
    # L = 1 m and w_p = 10 um, at the CLI's cut or 0.05 rad from the axis,
    # w_p = 3 um at L = 1 mm, w_p = 6 um at L = 1 m (b = S beta^2 = 269) and
    # the cone at 0.01 rad with w_p = 10 um at L = 30 cm or 5 um at 1 m,
    # where b > 0.8 puts points on the in-plane kernel's large-b band:
    # every column finite, every curve nonnegative, and the report's plane
    # lines finite
    for command in ("distributions", "report"):
        out = tmp_path / command
        assert run(command, *setup, "--grid", "401", "--out", str(out)) == 0
        for path in out.glob("*.dat"):
            columns = load_table(path)
            assert np.all(np.isfinite(columns)) and np.all(columns[:, 1] >= 0.0), path
        plane = [line for line in (out / "report.txt").read_text().splitlines()
                 if line.startswith("plane")]
        assert len(plane) == 2
        assert all(math.isfinite(float(line.split(":")[1].split()[0])) for line in plane)
    assert capsys.readouterr().err == ""


def test_parser_survives_a_refusal(tmp_path, capsys):
    # a refused line leaves nothing behind for the next one
    assert run("report", "--grid", "abc") == 2
    assert run("report", "--bogus", "1") == 2
    capsys.readouterr()
    out = tmp_path / "r"
    assert run("report", "--waist", "0.2", "--grid", "301", "--out", str(out)) == 0
    assert "coincidence width     : 2.5 cm^-1" in (out / "report.txt").read_text()
    args = cli.parse_args(["fcurve", "--length", "0.5"])
    assert (args.command, args.length, args.waist) == ("fcurve", 0.5, None)


@pytest.mark.parametrize("argv", [
    ("fcurve", "--theta0", "nan"),
    ("fcurve", "--theta0", "inf"),
    ("scan", "--seed", "-3"),
    ("scan", "--z", "inf"),
    ("fcurve", "--rel-tol", "-1"),
    ("fcurve", "--rel-tol", "nan"),
    ("scan", "--slit", "-1"),
    ("distributions", "--k2x", "1e200"),
    ("dispersion", "--lambda-p", "0.6"),
    ("report", "--phi0", "0.7", "--theta0", "0.1"),
    ("distributions", "--normalize", "bogus"),
    ("fcurve", "--grid", "abc"),
    ("scan", "--seed", "1.5"),
    ("scan", "--pairs", "0"),
    # a cone opens by less than a right angle
    ("report", "--theta0", "1e200"),
    ("fcurve", "--theta0", "1e200"),
    ("scan", "--theta0", "1.5707963267948966"),
    # a cone no wider than its ring's thickness lambda/(2 pi w_p) = 6.4e-5 rad
    ("scan", "--theta0", "1e-6"),
    # no evaluation of G(u) is accurate to 1e-18
    *[(command, "--rel-tol", "1e-18") for command in
      ("dispersion", "fcurve", "distributions", "scan", "report")],
    # a detector plane past the far field's 1 km
    ("scan", "--z", "1e300"),
    # a crystal longer than the model's 100 cm
    ("report", "--length", "1e300"),
    ("distributions", "--length", "1e300"),
    # a detector plane nearer than the far field's 1 cm
    ("scan", "--z", "1e-300"),
    ("scan", "--z", "1e-310"),
    # a crystal longer than 100 cm, as long as to overflow the gain
    *[(command, "--length", "1e305") for command in
      ("fcurve", "distributions", "report", "scan")],
    # a pump whose momentum spread 1/(2 w_p) passes the photon wavenumber
    *[(command, "--waist", "1e-200") for command in
      ("fcurve", "distributions", "report", "scan")],
    # a crystal past 100 cm with a waist below lambda_p/(2 pi)
    ("distributions", "--length", "1e303", "--waist", "1e-5"),
    ("report", "--length", "1e303", "--waist", "1e-5"),
    # the narrow waist that runs at L = 100 cm, on the next crystal past it
    ("distributions", "--length", "100.00000000000001", "--waist", "0.0006"),
    ("report", "--length", "100.00000000000001", "--waist", "0.0006"),
    # a waist wider than the model's 1 cm
    ("scan", "--waist", "1e10", "--pairs", "1000"),
    ("scan", "--waist", "1e200", "--pairs", "1000"),
    ("distributions", "--waist", "1e10", "--k2x", "1e4"),
    # crystals and detector planes far outside the model's domain
    ("fcurve", "--length", "1e300"),
    ("fcurve", "--length", "2e303", "--theta0", "1.5"),
    ("fcurve", "--length", "1e303"),
    ("fcurve", "--length", "1e303", "--theta0", "0"),
    ("scan", "--length", "1e303", "--pairs", "1000"),
    ("scan", "--z", "1.6e-153", "--pairs", "1000"),
    # crystals shorter than one pump wavelength, down to subnormal lengths
    # whose momentum grid 1.5 sqrt(lambda_p/L) wide overflows
    *[(command, "--length", "5e-324") for command in
      ("fcurve", "distributions", "report", "scan")],
    ("fcurve", "--length", "1e-310"),
    # a seed past 64 bits
    ("scan", "--seed", "18446744073709551616", "--pairs", "1000"),
])
def test_rejects_bad_input(tmp_path, capsys, argv):
    key = argv[1].lstrip("-").replace("-", "_")
    assert run(*argv, "--out", str(tmp_path / "x"), "--grid", "11") == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, message", [
    (("fcurve", "--theta0", "-1e-3"), "theta0 must lie in [0, pi/2)"),
    (("report", "--theta0", "-1.5e-3"), "theta0 must lie in [0, pi/2)"),
    (("distributions", "--k2x", "-inf"), "k2x must be finite"),
    (("distributions", "--k2x", "-nan"), "k2x must be finite"),
])
def test_signed_flag_values_reach_their_checks(tmp_path, capsys, argv, message):
    # a flag's value is the next token, whatever it starts with
    assert run(*argv, "--out", str(tmp_path / "x"), "--grid", "11") == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err, err
    assert not (tmp_path / "x").exists()


def test_signed_exponent_value_is_the_flags_value(tmp_path):
    # --k2 is a unique prefix of --k2x
    runs = (("a", ["--k2x", "-1e4"]), ("b", ["--k2x=-1e4"]), ("c", ["--k2", "-1e4"]))
    for out, argv in runs:
        assert run("distributions", *argv, "--out", str(tmp_path / out),
                   "--grid", "201") == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert "coincidence.dat" in names
    for name in names:
        for out in ("a", "c"):
            assert ((tmp_path / out / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), (out, name)


@pytest.mark.parametrize("argv, code, text", [
    # a unique prefix, and a signed exponent after its =
    (("distributions", "--k2=-1e4", "--grid", "201"), 0, "k2x=-10000.0"),
    # the command after its flags
    (("--grid", "11", "fcurve"), 0, "grid=11"),
    (("fcurve", "--s", "1"), 2, "ambiguous flag --s: --seed, --slit"),
    (("fcurve", "--bogus", "1"), 2, "unknown flag --bogus"),
    (("fcurve", "--grid"), 2, "argument --grid: expected one argument"),
    ((), 2, "got none"),
    (("bogus",), 2, "got 'bogus'"),
    (("fcurve", "report"), 2, "got 'fcurve' 'report'"),
    (("fcurve", "--grid", "11", "-h"), 0, "usage: biphoton"),
])
def test_command_line_grammar(tmp_path, capsys, argv, code, text):
    out = tmp_path / "x"
    try:
        status = run("--out", str(out), *argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    assert status == code
    if code == 2:
        assert captured.err.startswith("configuration error: "), captured.err
        assert text in captured.err, captured.err
        assert not out.exists()
    elif argv[-1] == "-h":
        assert captured.out.startswith(text) and not out.exists()
    else:
        assert text in config_echo(next(out.glob("*.dat")))


@pytest.mark.parametrize("command", ["dispersion", "fcurve", "distributions",
                                     "scan", "report"])
def test_wavelength_error_names_lambda_p(tmp_path, capsys, command):
    # the signal at 2 lambda_p = 1.2 um lies outside BBO's Sellmeier range
    assert run(command, "--lambda-p", "0.6", "--out", str(tmp_path / "x"),
               "--grid", "11") == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: lambda_p = 0.6: "), err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["dispersion", "fcurve", "distributions", "report"])
@pytest.mark.parametrize("grid", ["100000000000000000", "4611686018427387904"])
def test_unallocatable_grid_is_a_config_error(tmp_path, capsys, command, grid):
    # 711 PiB lies past any address space and 2**62 overflows numpy's size
    # check, so neither allocates; never test with a size that could
    assert run(command, "--grid", grid, "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: grid = {grid}: "), err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, module, name", [
    ("fcurve", dist, "f_exact"), ("distributions", dist, "f_exact"),
    ("report", dist, "f_exact"), ("dispersion", cr, "phase_match")])
def test_grid_too_big_for_its_arrays_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                       command, module, name):
    # the grid itself allocates; an array sized by it later does not
    def unallocatable(*args):
        raise MemoryError("Unable to allocate 153. MiB")

    monkeypatch.setattr(module, name, unallocatable)
    assert run(command, "--grid", "11", "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: grid = 11: Unable to allocate"), err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["fcurve", "scan"])
@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
def test_out_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys,
                                                          command, sub):
    # an existing file, or a path below one, cannot be made a directory
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / sub if sub else blocker
    assert run(command, "--out", str(out), "--grid", "11", "--pairs", "1000") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: out = {str(out)!r}: "), \
        captured.err
    assert captured.out == "" and blocker.read_text() == "kept\n"


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["scan", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: biphoton")


@pytest.mark.parametrize("command", ["dispersion", "fcurve", "distributions",
                                     "scan", "report"])
def test_rerun_is_byte_identical(tmp_path, command):
    extra = ["--pairs", "100000"] if command == "scan" else []
    for out in ("a", "b"):
        assert run(command, "--out", str(tmp_path / out), "--grid", "201",
                   *extra) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names and names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


_ROW_ORACLE_CONFIGS = {**_SCAN_CONFIGS,
                       "long": ["--theta0", "0.28", "--waist", "0.05", "--length", "10.0"],
                       "theta0=0": ["--theta0", "0"]}


@pytest.mark.parametrize("config", sorted(_ROW_ORACLE_CONFIGS))
def test_cli_tables_are_what_the_row_writer_writes(tmp_path, config):
    # each table read back and written again by the plain "%.12e" row
    # writer: a 13-digit mantissa round-trips through a double, so its bytes
    # come back.  dispersion's cone_angle.dat holds NaN rows, and
    # cone_angle_fit.dat zeros; theta0 = 0 has no ring to scan
    for command in ("dispersion", "fcurve", "distributions", "scan", "report"):
        out = tmp_path / command
        extra = ["--pairs", "20000"] if command == "scan" else []
        refused = (config, command) == ("theta0=0", "scan")
        assert run(command, *_ROW_ORACLE_CONFIGS[config], *extra,
                   "--out", str(out)) == (2 if refused else 0)
        for path in sorted(out.glob("*.dat")):
            rows = np.loadtxt(path, ndmin=2)
            write_table_rows(tmp_path / "rows.dat", header(path), list(rows.T))
            assert (tmp_path / "rows.dat").read_bytes() == path.read_bytes(), path.name
    cone = np.loadtxt(tmp_path / "dispersion" / "cone_angle.dat")
    assert np.isnan(cone).any()


@pytest.mark.parametrize("config", sorted(_ROW_ORACLE_CONFIGS))
def test_report_is_what_distributions_reports(tmp_path, capsys, config):
    # both commands write and print one report, from the same curves on the
    # --grid points, whatever distributions normalizes its tables to
    for grid in ("1201", "2001", "3001"):
        argv = [*_ROW_ORACLE_CONFIGS[config], "--grid", grid]
        assert run("report", *argv, "--out", str(tmp_path / "r")) == 0
        text = (tmp_path / "r" / "report.txt").read_text()
        assert capsys.readouterr().out == text
        for mode in ("area", "peak", "raw"):
            out = tmp_path / mode
            assert run("distributions", *argv, "--normalize", mode,
                       "--out", str(out)) == 0
            assert (out / "report.txt").read_text() == text, (grid, mode)
            assert capsys.readouterr().out.startswith(text)


@pytest.mark.parametrize("command, key", [
    ("report", "waist"),
    ("distributions", "k2x"),
    ("fcurve", "grid"),
    ("scan", "seed"),
    ("report", "normalize"),
    ("report", "phi0"),
])
def test_rejects_none_for_required_key(tmp_path, capsys, command, key):
    cfg = tmp_path / "none.cfg"
    cfg.write_text(f"{key} = none\n")
    assert run(command, "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and repr(key) in err
    assert not (tmp_path / "x").exists()


def test_none_keeps_its_default_meaning(tmp_path):
    cfg = tmp_path / "none.cfg"
    cfg.write_text("crystal = none\ntheta0 = none\nslit = none\n")
    assert run("report", "--config", str(cfg), "--out", str(tmp_path / "r"),
               "--grid", "101") == 0


def test_every_table_has_one_format(tmp_path):
    out = tmp_path / "all"
    for command in ("dispersion", "fcurve", "distributions"):
        assert run(command, "--out", str(out), "--grid", "101") == 0
    assert run("scan", "--out", str(out), "--grid", "101", "--pairs", "20000") == 0
    tables = sorted(out.glob("*.dat"))
    assert len(tables) == 11
    dispersion = {"index_difference.dat", "cone_angle.dat", "cone_angle_fit.dat"}
    for path in tables:
        # the title, config:, resolved: (but for dispersion) and columns:,
        # ahead of every row
        lines = header(path)
        assert path.read_text().splitlines()[len(lines)][0] != "#", path.name
        assert lines[0].startswith("biphoton ") and ":" not in lines[0], path.name
        tags = ["config", "columns"] if path.name in dispersion else [
            "config", "resolved", "columns"]
        assert [line.split(": ", 1)[0] for line in lines[1:]] == tags, path.name
        names = lines[-1].split()[1:]
        rows = np.loadtxt(path, ndmin=2)
        assert rows.shape[1] == len(names) >= 2, path.name

    single = load_curve(out / "single_particle.dat")
    assert header(out / "single_particle.dat")[-1] == "columns: kappa single_particle"
    assert "normalize='area'" in config_echo(out / "single_particle.dat")
    assert single.area() == pytest.approx(1.0, rel=1e-9)

    # the Monte-Carlo scan reads back as counts over plane positions in cm
    cfg = cli.resolve_config(cli.parse_args(
        ["scan", "--grid", "101", "--pairs", "20000"]))
    params = cli._load_setup(cfg)
    positions = 0.5 * default_kappa_grid(params, 101) * cfg.z
    scan = scan_single(sample_pairs(params, cfg.z, cfg.pairs, cfg.seed),
                       positions)
    back = np.loadtxt(out / "scan_single_mc.dat")
    assert header(out / "scan_single_mc.dat")[-1] == "columns: x_cm counts"
    np.testing.assert_allclose(back[:, 0], scan.x, rtol=1e-12)
    np.testing.assert_array_equal(back[:, 1], scan.counts)


def test_cone_interior_column_has_one_policy(tmp_path):
    # f_approx as it is in both tables: +inf exactly at the cone edge, which
    # theta0 = 0 puts at kappa = 0 of the main grid, and never NaN
    for theta0 in ("0", "0.1"):
        out = tmp_path / theta0
        assert run("fcurve", "--theta0", theta0, "--grid", "11",
                   "--out", str(out)) == 0
        tables = sorted(out.glob("*.dat"))
        assert len(tables) == (1 if theta0 == "0" else 2)
        for path in tables:
            assert "nan" not in path.read_text(), path.name
    rows = load_table(tmp_path / "0" / "difference_distribution.dat")
    assert np.isinf(rows[:, 2]).tolist() == [False] * 5 + [True] + [False] * 5


# BBO's coefficients, valid from 0.1 um on, so that the domain's shortest pump
# 0.2 um is a point of the Sellmeier form
_WIDE_CRYSTAL = ("name = BBO-wide\nsellmeier_o = 2.7405 0.0184 0.0179 0.0155\n"
                 "sellmeier_e = 2.3730 0.0128 0.0156 0.0044\nvalid_range = 0.1 1.06\n")
_BOUNDS = [("lambda_p", 0.2, 0.0), ("waist", 1.0, 2.0), ("length", 100.0, 200.0),
           # one wavelength of the default pump, 0.4047 um
           ("length", 0.4047 * MICRON_TO_CM, 0.0)]


@pytest.mark.parametrize("command, key, bound, past", [
    *[(command, *bound) for command in ("fcurve", "distributions", "report", "scan")
      for bound in _BOUNDS],
    ("scan", "z", 1.0, 0.0),
    ("scan", "z", 1e5, 2e5),
])
def test_domain_bound_is_exact(tmp_path, capsys, command, key, bound, past):
    # the bound itself lies inside the model's domain, the next float past it
    # does not
    crystal = tmp_path / "wide.crystal"
    crystal.write_text(_WIDE_CRYSTAL)
    flag = "--" + key.replace("_", "-")
    argv = [command, "--crystal", str(crystal), "--theta0", "0.1", "--grid", "11",
            "--pairs", "1000"]
    assert run(*argv, flag, repr(bound), "--out", str(tmp_path / "in")) == 0
    capsys.readouterr()
    beyond = repr(float(np.nextafter(bound, past)))
    assert run(*argv, flag, beyond, "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key in err, err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ("--lambda-p", lambda_p, "--theta0", theta0, "--waist", "1", "--length", length)
    for lambda_p in ("0.22", "0.53") for theta0 in ("0", "1.5")
    for length in ("1e-4", "100")])
def test_extreme_config_writes_no_nan(tmp_path, capsys, argv):
    # the corners of the model's domain: BBO's shortest and longest pumps, no
    # cone and the widest, the widest waist, a 1 um and the longest crystal,
    # and the nearest and farthest detector planes.  Each command runs quietly
    # (the suite makes warnings errors) and writes no NaN
    runs = [("fcurve",), ("distributions",), ("report",),
            ("scan", "--z", "1"), ("scan", "--z", "1e5")]
    for i, command in enumerate(runs):
        out = tmp_path / str(i)
        code = run(*command, *argv, "--grid", "201", "--pairs", "1000",
                   "--out", str(out))
        err = capsys.readouterr().err
        if command[0] == "scan" and argv[3] == "0":
            # no ring to scan without a cone
            assert code == 2 and "ring's angular thickness" in err, err
            assert not out.exists()
            continue
        assert code == 0
        # scan's 1000 pairs may miss the D2 slit
        assert err in ("", "warning: coincidence scan captured no pairs\n"), err
        paths = list(out.glob("*.dat"))
        assert paths or command[0] == "report"
        for path in paths:
            assert not np.any(np.isnan(load_table(path))), path


def test_scan_that_captures_no_pairs_writes_zeros(tmp_path, capsys):
    # a cone this narrow puts both photons of the one pair outside the scan
    # lines; each empty scan warns, and its unit-area column stays 0, not NaN
    out = tmp_path / "s"
    assert run("scan", "--theta0", "6.8e-5", "--pairs", "1", "--seed", "7",
               "--out", str(out)) == 0
    assert capsys.readouterr().err == (
        "warning: single-mc scan captured no pairs\n"
        "warning: coincidence scan captured no pairs\n")
    comparison = load_table(out / "scan_comparison.dat")
    assert not np.any(np.isnan(comparison))
    assert np.all(comparison[:, 1] == 0.0)
    np.testing.assert_array_equal(comparison[:, 3], comparison[:, 2])


def test_default_config_echo(tmp_path):
    # perfbench/checks.py parses this line; every key but out, in table order
    out = tmp_path / "f"
    assert run("fcurve", "--out", str(out)) == 0
    lines = (out / "difference_distribution.dat").read_text().splitlines()
    assert lines[1] == (
        "# config: crystal=None lambda_p=0.4047 phi0=0.5275 theta0=None "
        "waist=0.1 length=0.1 z=100.0 grid=2001 seed=12345 normalize='area' "
        "pairs=1000000 k2x=0.0 slit=None rel_tol=1e-06")


def test_every_command_takes_every_key_as_a_flag(tmp_path):
    # a sample value of each key's type; parsing alone, nothing is run
    flags = [arg for key, (kind, default, _) in cli._KEYS.items()
             for arg in ("--" + key.replace("_", "-"),
                         str(default if default is not None else kind(1)))]
    for command in cli.COMMANDS:
        args = cli.parse_args([command, *flags])
        assert args.command == command
        assert all(getattr(args, key) is not None for key in cli._KEYS), command

    # a flag and the same key in a config file write the same bytes
    cfg = tmp_path / "pairs.cfg"
    cfg.write_text("pairs = 5\n")
    for name, argv in (("flag", ["--pairs", "5"]), ("file", ["--config", str(cfg)])):
        assert run("fcurve", "--grid", "101", "--out", str(tmp_path / name), *argv) == 0
    names = sorted(p.name for p in (tmp_path / "flag").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "file").iterdir())
    for name in names:
        assert ((tmp_path / "flag" / name).read_bytes()
                == (tmp_path / "file" / name).read_bytes()), name


@pytest.mark.parametrize("body, line, message", [
    ("\n# a comment\n{key} 1\n", 3, "expected 'key = value', got '{key} 1'"),
    ("# a comment\n\nbogus = 1  # trailing comment\n", 3, "unknown key 'bogus'"),
    ("{key} = 1\n\n# a comment\n{key} = 2\n", 4,
     "duplicate key '{key}' (first on line 1)"),
], ids=["no-equals", "unknown-key", "repeated-key"])
def test_config_and_crystal_files_share_one_reader(tmp_path, capsys, body, line,
                                                   message):
    # the same malformed body, with a key each file knows, fails both readers
    # on the same line with the same message
    for key, flag in (("name", "--crystal"), ("waist", "--config")):
        path = tmp_path / f"bad-{key}.txt"
        path.write_text(body.format(key=key))
        expected = f"{path}:{line}: {message.format(key=key)}"
        if flag == "--crystal":
            with pytest.raises(CrystalFileError) as err:
                load_crystal(path)
            assert err.value.line == line and str(err.value) == expected
        assert run("report", flag, str(path), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == f"configuration error: {expected}\n"
        assert not (tmp_path / "x").exists()


def test_every_table_echoes_its_config(tmp_path):
    # one `# config:` line in every table, the same across a command's tables
    # (report writes report.txt alone)
    tables = {"dispersion": 3, "fcurve": 2, "distributions": 3, "scan": 3}
    for command, count in tables.items():
        out = tmp_path / command
        assert run(command, "--out", str(out), "--grid", "101",
                   "--pairs", "20000") == 0
        echoes = set()
        paths = list(out.glob("*.dat"))
        assert len(paths) == count, command
        for path in paths:
            lines = [line for line in path.read_text().splitlines()
                     if line.startswith("# config: ")]
            assert len(lines) == 1, path
            echoes.update(lines)
        assert len(echoes) == 1, (command, echoes)
        assert "pairs=20000" in echoes.pop()
