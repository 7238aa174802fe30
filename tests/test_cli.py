import os
import subprocess
import sys

import numpy as np
import pytest

from biphoton import (cli, default_kappa_grid, read_curve, sample_pairs,
                      scan_single)


def run(*argv):
    return cli.main(list(argv))


def load_table(path):
    return np.loadtxt(path)


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


def test_fcurve_command(tmp_path):
    out = tmp_path / "f"
    assert run("fcurve", "--out", str(out), "--grid", "301") == 0
    main_table = load_table(out / "difference_distribution.dat")
    kap, exact, approx = main_table[:, 0], main_table[:, 1], main_table[:, 2]
    mid = np.abs(kap) < 0.15
    assert np.max(np.abs(exact[mid] / approx[mid] - 1.0)) < 1e-2
    assert (out / "difference_distribution_edge.dat").exists()
    # determinism: rerun into a second directory, identical bytes
    out2 = tmp_path / "f2"
    assert run("fcurve", "--out", str(out2), "--grid", "301") == 0
    a = (out / "difference_distribution.dat").read_bytes()
    b = (out2 / "difference_distribution.dat").read_bytes()
    assert a == b


def test_distributions_command(tmp_path):
    out = tmp_path / "d"
    assert run("distributions", "--out", str(out), "--grid", "601") == 0
    for name in ("single_particle.dat", "coincidence.dat",
                 "plane_restricted.dat", "report.txt"):
        assert (out / name).exists()
    single = read_curve(out / "single_particle.dat")
    assert single.normalization == "unit-area"
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
        c = read_curve(out / "single_particle.dat")
        shapes[th] = c
    c = shapes["0.04"]
    center = c.y[len(c.y) // 2]
    assert center < 0.95 * c.peak()          # visible interior dip
    assert abs(abs(c.argmax_x()) - 0.0348) < 5e-3
    c = shapes["0.02"]
    assert c.y[len(c.y) // 2] > 0.98 * c.peak()   # flat top
    c = shapes["0.0"]
    assert abs(c.argmax_x()) <= c.x[1] - c.x[0]   # single bell at zero


def test_scan_command(tmp_path):
    out = tmp_path / "s"
    assert run("scan", "--out", str(out), "--pairs", "100000",
               "--grid", "201") == 0
    header = (out / "scan_single_analytic.dat").read_text().splitlines()[:8]
    assert any("r0_cm=10.0" in line for line in header)
    comparison = load_table(out / "scan_comparison.dat")
    assert comparison.shape[1] == 6
    assert np.all(np.isfinite(comparison))
    out2 = tmp_path / "s2"
    assert run("scan", "--out", str(out2), "--pairs", "100000",
               "--grid", "201") == 0
    for name in ("scan_single_analytic.dat", "scan_single_mc.dat",
                 "scan_coincidence.dat", "scan_comparison.dat"):
        assert (out2 / name).read_bytes() == (out / name).read_bytes(), name


_PEAK_RSS = """
import sys
from biphoton import cli
if cli.main(sys.argv[1:]) != 0:
    sys.exit("scan failed")
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status for the peak resident set")
def test_scan_memory_does_not_grow_with_pairs(tmp_path):
    # the scan histograms fixed-size blocks, so ten times the pairs must
    # not raise the peak resident set
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    peaks_mb = []
    for pairs in ("200000", "2000000"):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, "scan", "--pairs", pairs,
             "--out", str(tmp_path / pairs)],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        peaks_mb.append(int(proc.stdout.split()[-1]) / 1024.0)
    assert abs(peaks_mb[1] - peaks_mb[0]) < 20.0, peaks_mb


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


def test_normalize_peak_flag(tmp_path):
    out = tmp_path / "p"
    assert run("distributions", "--out", str(out), "--grid", "301",
               "--normalize", "peak") == 0
    c = read_curve(out / "single_particle.dat")
    assert c.normalization == "unit-peak"
    assert c.peak() == pytest.approx(1.0, rel=1e-12)


def test_config_errors(tmp_path, capsys):
    # unreadable crystal file
    assert run("report", "--crystal", str(tmp_path / "missing.crystal")) == 2
    # malformed crystal file reports the line
    bad = tmp_path / "bad.crystal"
    bad.write_text("name = X\nsellmeier_o = oops\n")
    assert run("report", "--crystal", str(bad)) == 2
    assert ":2:" in capsys.readouterr().err
    # malformed config file
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("nonsense\n")
    assert run("report", "--config", str(cfg)) == 2
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


def test_theta0_zero_distributions_ok(tmp_path):
    out = tmp_path / "c0"
    assert run("distributions", "--theta0", "0.0", "--out", str(out),
               "--grid", "301") == 0
    assert "collinear" in (out / "report.txt").read_text()


@pytest.mark.parametrize("argv", [
    ("fcurve", "--theta0", "nan"),
    ("fcurve", "--theta0", "inf"),
    ("scan", "--seed", "-3"),
    ("scan", "--z", "inf"),
    ("fcurve", "--rel-tol", "-1"),
    ("fcurve", "--rel-tol", "nan"),
    ("scan", "--slit", "-1"),
    ("distributions", "--k2x", "1e200"),
])
def test_rejects_bad_input(tmp_path, capsys, argv):
    key = argv[1].lstrip("-").replace("-", "_")
    assert run(*argv, "--out", str(tmp_path / "x"), "--grid", "11") == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, key", [
    ("report", "waist"),
    ("distributions", "k2x"),
    ("fcurve", "grid"),
    ("scan", "seed"),
    ("report", "normalize"),
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
    assert len(tables) == 12
    for path in tables:
        lines = path.read_text().splitlines()
        n_header = next(i for i, line in enumerate(lines)
                        if not line.startswith("#"))
        assert n_header > 0, path.name
        widths = {len(line.split()) for line in lines[n_header:]}
        assert len(widths) == 1 and widths.pop() >= 2, path.name

    single = read_curve(out / "single_particle.dat")
    assert single.xunit == "kappa" and single.normalization == "unit-area"
    assert single.area() == pytest.approx(1.0, rel=1e-9)

    # the Monte-Carlo scan reads back as a curve over plane positions in cm
    cfg = cli.resolve_config(cli.build_parser().parse_args(
        ["scan", "--grid", "101", "--pairs", "20000"]))
    _, params = cli._load_setup(cfg)
    positions = 0.5 * default_kappa_grid(params, 101) * cfg.z
    scan = scan_single(sample_pairs(params, cfg.z, cfg.pairs, cfg.seed),
                       positions)
    back = read_curve(out / "scan_single_mc.dat")
    assert back.xunit == "cm" == scan.xunit
    np.testing.assert_allclose(back.x, scan.x, rtol=1e-12)
    np.testing.assert_array_equal(back.y, scan.y)


@pytest.mark.parametrize("command", ["dispersion", "fcurve", "distributions",
                                     "scan", "report"])
def test_numeric_failure_exit_code(tmp_path, capsys, command):
    # no evaluation of G(u) is accurate to 1e-18: refused before any output
    out = tmp_path / "n"
    assert run(command, "--out", str(out), "--rel-tol", "1e-18",
               "--grid", "11") == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical accuracy failure: accuracy 1e-18 ")
    assert not out.exists()
