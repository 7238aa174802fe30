import math

import numpy as np
import pytest
from scipy.optimize import brentq

from biphoton import (CrystalDispersion, CrystalFileError,
                      NoCollinearRootError, WavelengthRangeError,
                      collinear_cut_angle, index_ordinary, load_crystal,
                      opening_angle_fit, phase_match)
from biphoton.crystal import index_extraordinary

from conftest import collinear_cut_brentq

LAM_P = 0.4047  # um


def test_bbo_index_regression(bbo):
    # tabulated handbook values, five decimal places
    assert abs(index_ordinary(bbo, LAM_P) - 1.69236) < 0.5e-5
    assert abs(index_extraordinary(bbo, LAM_P) - 1.56801) < 0.5e-5
    assert abs(index_ordinary(bbo, 2 * LAM_P) - 1.66109) < 0.5e-5


def test_extraordinary_at_signal_wavelength(bbo):
    # oracle: direct Sellmeier arithmetic with the bundled coefficients
    lam2 = (2 * LAM_P) ** 2
    n2 = 2.3730 + 0.0128 / (lam2 - 0.0156) - 0.0044 * lam2
    assert index_extraordinary(bbo, 2 * LAM_P) == pytest.approx(math.sqrt(n2), rel=1e-14)
    assert abs(index_extraordinary(bbo, 2 * LAM_P) - 1.546005) < 0.5e-5


def test_dispersion_ordering(bbo):
    # normal dispersion plus negative uniaxial ordering
    assert index_ordinary(bbo, LAM_P) > index_ordinary(bbo, 2 * LAM_P)
    for lam in (0.25, LAM_P, 2 * LAM_P, 1.0):
        assert index_extraordinary(bbo, lam) < index_ordinary(bbo, lam)
        assert index_ordinary(bbo, lam) > 1.0


def test_out_of_range_wavelength(bbo):
    with pytest.raises(WavelengthRangeError):
        index_ordinary(bbo, 0.1)
    with pytest.raises(WavelengthRangeError):
        index_extraordinary(bbo, 2.0)


def test_pump_index_limits(bbo):
    # the pump index is delta_n + N, N = n_o(2 lambda_p): n_o along the axis,
    # n_e across it
    n_o = index_ordinary(bbo, LAM_P)
    n_e = index_extraordinary(bbo, LAM_P)
    big_n = index_ordinary(bbo, 2 * LAM_P)
    assert phase_match(bbo, 0.0, LAM_P)[0] + big_n == pytest.approx(n_o, rel=1e-14)
    assert (phase_match(bbo, math.pi / 2, LAM_P)[0] + big_n
            == pytest.approx(n_e, rel=1e-14))


def test_pump_index_monotone_decreasing(bbo):
    # delta_n = n_p - N is exact (Sterbenz), so n_p's order is delta_n's
    phis = np.linspace(0.0, math.pi / 2, 200)
    delta_n, _ = phase_match(bbo, phis, LAM_P)
    assert np.all(np.diff(delta_n) < 0.0)


def test_phase_match_identities(bbo):
    delta_n, theta0 = phase_match(bbo, 0.7, LAM_P)
    big_n = index_ordinary(bbo, 2 * LAM_P)
    assert not math.isnan(theta0)
    assert theta0 ** 2 == pytest.approx(-2 * big_n * delta_n, rel=1e-12)


def test_phase_match_collinear_impossible_side(bbo):
    delta_n, theta0 = phase_match(bbo, 0.3, LAM_P)
    assert delta_n > 0
    assert math.isnan(theta0)
    # one convention for arrays: NaN wherever delta_n >= 0
    _, theta0 = phase_match(bbo, np.array([0.3, 0.7]), LAM_P)
    assert math.isnan(theta0[0]) and theta0[1] > 0.0


def test_phase_match_scalar_gives_floats(bbo):
    # _header echoes repr(theta0): a numpy scalar would change every header
    for phi in (0.5275, 0.3):
        assert [type(value) for value in phase_match(bbo, phi, LAM_P)] == [float, float]
    assert type(opening_angle_fit(bbo, 0.7, LAM_P)) is float


def test_phase_match_array_equals_scalar_calls(bbo):
    phis = np.concatenate([np.linspace(0.0, math.pi / 2, 1001), [0.5008, 0.5275, 0.7]])
    delta_n, theta0 = phase_match(bbo, phis, LAM_P)
    # the per-angle arithmetic in math, as the loop over cut angles had it
    n_o, n_e = index_ordinary(bbo, LAM_P), index_extraordinary(bbo, LAM_P)
    big_n = index_ordinary(bbo, 2 * LAM_P)
    loop = [n_o * n_e / math.sqrt(n_o * n_o * math.sin(p) * math.sin(p)
                                  + n_e * n_e * math.cos(p) * math.cos(p)) - big_n
            for p in phis]
    assert np.array_equal(delta_n, loop)
    one = np.array([phase_match(bbo, float(p), LAM_P) for p in phis])
    assert np.array_equal(delta_n, one[:, 0])
    assert np.array_equal(theta0, one[:, 1], equal_nan=True)
    fit_phis = phis[phis >= collinear_cut_angle(bbo, LAM_P)]
    assert np.array_equal(opening_angle_fit(bbo, fit_phis, LAM_P),
                          [opening_angle_fit(bbo, float(p), LAM_P) for p in fit_phis])
    # shapes pass through
    delta_n, theta0 = phase_match(bbo, phis.reshape(-1, 4), LAM_P)
    assert delta_n.shape == theta0.shape == (251, 4)


def test_cone_angle_reference_points(bbo):
    assert phase_match(bbo, 0.7, LAM_P)[1] == pytest.approx(0.28, abs=5e-3)
    assert phase_match(bbo, 0.5275, LAM_P)[1] == pytest.approx(0.100, abs=5e-3)


def test_collinear_cut_angle(bbo):
    root = collinear_cut_angle(bbo, LAM_P)
    assert abs(root - 0.5008) < 1e-3
    assert abs(phase_match(bbo, root, LAM_P)[0]) < 1e-10
    # independent root finder as cross-check
    ref = brentq(lambda p: phase_match(bbo, p, LAM_P)[0],
                 0.3, 0.8, xtol=1e-14)
    assert root == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("lambda_p", [round(x, 2) for x in np.linspace(0.30, 0.53, 24)])
def test_collinear_cut_angle_closed_form(bbo, lambda_p):
    # the closed form against a root finder on the index difference
    root = collinear_cut_angle(bbo, lambda_p)
    assert abs(root - collinear_cut_brentq(bbo, lambda_p)) <= 1e-12
    assert abs(phase_match(bbo, root, lambda_p)[0]) <= 1e-15


def _toy(sellmeier_o, sellmeier_e):
    return CrystalDispersion("TOY", sellmeier_o, sellmeier_e, (0.22, 1.06))


def test_collinear_cut_angle_no_sign_change(bbo):
    bbo_o = bbo.sellmeier_o
    # n_e(lambda_p) above n_o(2 lambda_p): the index difference stays
    # positive up to phi0 = pi/2 (sin^2 = 1.16)
    with pytest.raises(NoCollinearRootError):
        collinear_cut_angle(_toy(bbo_o, (2.65, *bbo_o[1:])), LAM_P)
    # anomalous ordinary dispersion, n_o(2 lambda_p) > n_o(lambda_p): sin^2 < 0
    with pytest.raises(NoCollinearRootError):
        collinear_cut_angle(_toy((2.7405, -0.0184, 0.0179, 0.0), bbo.sellmeier_e),
                            LAM_P)
    # no birefringence: n_o = n_e, 0/0 in the closed form
    with pytest.raises(NoCollinearRootError):
        collinear_cut_angle(_toy(bbo_o, bbo_o), LAM_P)


def _law_scale(disp, lambda_p, h=1e-6):
    """C of theta0 = C sqrt(phi0 - phi_c), from a central difference of delta_n."""
    cut = collinear_cut_angle(disp, lambda_p)
    delta_n, _ = phase_match(disp, np.array([cut - h, cut + h]), lambda_p)
    slope = (delta_n[1] - delta_n[0]) / (2.0 * h)
    return math.sqrt(-2.0 * index_ordinary(disp, 2.0 * lambda_p) * slope), cut


def test_opening_angle_fit_values(bbo):
    # the law C sqrt(phi0 - phi_c) with C from the derivative of delta_n at
    # the cut, taken here by a finite difference of phase_match
    for lambda_p, scale in ((LAM_P, 0.6076), (0.5, 0.5636)):
        c, cut = _law_scale(bbo, lambda_p)
        assert c == pytest.approx(scale, abs=5e-5)
        for phi in (cut + 1e-3, 0.7, np.array([cut, 0.9, 1.2])):
            np.testing.assert_allclose(opening_angle_fit(bbo, phi, lambda_p),
                                       c * np.sqrt(phi - cut), rtol=1e-8)
        assert opening_angle_fit(bbo, cut, lambda_p) == 0.0
        for bad in (cut - 1e-9, math.nan, np.array([0.6, cut - 0.01, 0.7]),
                    np.array([0.6, math.nan])):
            with pytest.raises(ValueError):
                opening_angle_fit(bbo, bad, lambda_p)


@pytest.mark.parametrize("lambda_p", [LAM_P, 0.5])
def test_opening_angle_law_is_the_limit_at_the_cut(bbo, lambda_p):
    # the law is the leading order of the exact angle: its relative error
    # shrinks in proportion to phi0 - phi_c (-0.27 and -0.41 times it)
    cut = collinear_cut_angle(bbo, lambda_p)
    steps = np.array([1e-3, 1e-4, 1e-5])
    rel = (opening_angle_fit(bbo, cut + steps, lambda_p)
           / phase_match(bbo, cut + steps, lambda_p)[1] - 1.0)
    slope = rel / steps
    assert np.all(np.abs(slope) < 0.5)
    assert np.ptp(slope) < 0.01 * np.abs(slope).max()


def test_opening_angle_law_below_the_cut_of_a_positive_crystal():
    # n_e > n_o at the pump: the cone opens below the cut, and the law
    # |C| sqrt(phi_c - phi0) is the exact angle's leading order there
    toy = _toy((2.7405, -0.0184, 0.0179, 0.0), (2.8, 0.0128, 0.0156, 0.0044))
    cut = collinear_cut_angle(toy, LAM_P)
    steps = np.array([1e-3, 1e-4, 1e-5])
    rel = (opening_angle_fit(toy, cut - steps, LAM_P)
           / phase_match(toy, cut - steps, LAM_P)[1] - 1.0)
    slope = rel / steps
    assert np.all(np.abs(slope) < 0.5)
    assert np.ptp(slope) < 0.01 * np.abs(slope).max()
    assert math.copysign(1.0, opening_angle_fit(toy, cut, LAM_P)) == 1.0
    for bad in (cut + 1e-9, math.nan, np.array([0.3, cut + 0.01])):
        with pytest.raises(ValueError, match="no cone opens"):
            opening_angle_fit(toy, bad, LAM_P)


def test_fit_tracks_exact_cone_angle(bbo):
    for phi in np.linspace(0.51, 0.9, 79):
        _, exact = phase_match(bbo, phi, LAM_P)
        assert abs(opening_angle_fit(bbo, phi, LAM_P) - exact) / exact < 0.05


def test_load_bundled_crystal(bbo):
    assert bbo.name == "BBO"
    assert len(bbo.sellmeier_o) == 4
    assert bbo.valid_range[0] < LAM_P < 2 * LAM_P < bbo.valid_range[1]


def test_load_custom_crystal_roundtrip(tmp_path):
    path = tmp_path / "toy.crystal"
    path.write_text(
        "# comment\n"
        "name = TOY\n"
        "sellmeier_o = 2.5 0.02 0.01 0.01\n"
        "sellmeier_e = 2.2 0.01 0.01 0.005\n"
        "valid_range = 0.3 1.0\n")
    disp = load_crystal(path)
    assert disp.name == "TOY"
    assert disp.sellmeier_e == (2.2, 0.01, 0.01, 0.005)
    assert index_ordinary(disp, 0.5) > 1.0


_BBO_LINES = ("name = X\nsellmeier_o = 2.7405 0.0184 0.0179 0.0155\n"
              "sellmeier_e = 2.3730 0.0128 0.0156 0.0044\nvalid_range = 0.22 1.06\n")


@pytest.mark.parametrize("body,bad_line", [
    ("name = X\njunk line\n", 2),
    ("name = X\nwhatever = 1\n", 2),
    ("name = X\nname = Y\n", 2),
    # numbers that parse but are not finite
    (_BBO_LINES.replace("2.7405", "nan"), 2),
    (_BBO_LINES.replace("0.0128", "inf"), 3),
    (_BBO_LINES.replace("1.06", "inf"), 4),
])
def test_malformed_crystal_file(tmp_path, body, bad_line):
    path = tmp_path / "bad.crystal"
    path.write_text(body)
    with pytest.raises(CrystalFileError) as err:
        load_crystal(path)
    assert err.value.line == bad_line
    assert str(path) in str(err.value)


@pytest.mark.parametrize("body, message", [
    (_BBO_LINES.replace("0.0184", "abc"), "non-numeric value in sellmeier_o"),
    (_BBO_LINES.replace(" 0.0155", ""), "sellmeier_o needs 4 finite numbers"),
], ids=["non-numeric", "three-numbers"])
def test_malformed_crystal_number(tmp_path, body, message):
    # every key is present, so the number's own check refuses the file
    path = tmp_path / "bad.crystal"
    path.write_text(body)
    with pytest.raises(CrystalFileError) as err:
        load_crystal(path)
    assert err.value.line == 2
    assert str(err.value).startswith(f"{path}:2: {message}")


def test_missing_keys_and_missing_file(tmp_path):
    path = tmp_path / "incomplete.crystal"
    path.write_text("name = X\nsellmeier_o = 2.5 0.02 0.01 0.01\n")
    with pytest.raises(CrystalFileError):
        load_crystal(path)
    with pytest.raises(CrystalFileError):
        load_crystal(tmp_path / "nope.crystal")


def test_dispersion_validation(bbo):
    with pytest.raises(ValueError):
        CrystalDispersion("X", (1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0), (1.0, 0.5))
    with pytest.raises(ValueError):
        CrystalDispersion("X", (1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (0.3, 1.0))
    # the cut checks: phi0 in [0, pi/2] for every element, lambda_p finite
    with pytest.raises(ValueError):
        phase_match(bbo, -0.1, LAM_P)
    with pytest.raises(ValueError):
        phase_match(bbo, 0.5, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            CrystalDispersion("X", (1.0, 2.0, 3.0, bad), (1.0, 2.0, 3.0, 4.0), (0.3, 1.0))
        with pytest.raises(ValueError):
            CrystalDispersion("X", (1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0), (0.3, bad))
        with pytest.raises(ValueError):
            phase_match(bbo, 0.5, bad)
        with pytest.raises(ValueError):
            phase_match(bbo, bad, LAM_P)
        # one bad element refuses the whole array
        with pytest.raises(ValueError, match="outside"):
            phase_match(bbo, np.array([0.5, bad, 0.7]), LAM_P)
    with pytest.raises(ValueError, match="outside"):
        phase_match(bbo, np.array([0.5, 1.6]), LAM_P)
