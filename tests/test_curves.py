import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from biphoton import Curve, curves

from conftest import (argmax_x, curve_mean, curve_rms, excess_kurtosis, fwhm,
                      write_table_rows)


def gaussian_curve(sigma=2.0, n=4001, span=10.0):
    x = np.linspace(-span * sigma, span * sigma, n)
    return Curve(x=x, y=np.exp(-0.5 * (x / sigma) ** 2))


def test_validation(tmp_path):
    with pytest.raises(ValueError):
        Curve(x=np.array([0.0, 0.0, 1.0]), y=np.zeros(3))
    with pytest.raises(ValueError, match="at least two samples"):
        Curve(x=np.array([0.0]), y=np.array([1.0]))
    with pytest.raises(ValueError):
        Curve(x=np.array([0.0, 1.0]), y=np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        Curve(x=np.array([0.0, 1.0]), y=np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Curve(x=np.array([0.0, 1.0, 2.0]), y=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="unknown normalization"):
        Curve(x=np.array([0.0, 1.0]), y=np.array([1.0, 1.0])).normalized("bogus")
    for mode in ("area", "peak"):
        with pytest.raises(ValueError, match="all-zero"):
            Curve(x=np.array([0.0, 1.0]), y=np.zeros(2)).normalized(mode)
    # unequal columns are refused before the file is opened
    with pytest.raises(ValueError, match="equal length"):
        curves.write_table(tmp_path / "t.dat", [], [np.zeros(3), np.zeros(2)])
    assert not (tmp_path / "t.dat").exists()


def test_write_table_refuses_no_columns(tmp_path):
    # no columns at all is refused as unequal columns are, before the file is opened
    with pytest.raises(ValueError, match="equal length"):
        curves.write_table(tmp_path / "t.dat", ["title"], [])
    assert not (tmp_path / "t.dat").exists()


def test_unit_area_contract():
    c = gaussian_curve().normalized("area")
    assert abs(c.area() - 1.0) < 1e-6
    # idempotent
    again = c.normalized("area")
    assert np.array_equal(c.y, again.y)
    # invariant under raw rescaling
    scaled = Curve(x=c.x, y=c.y * 7.3).normalized("area")
    np.testing.assert_allclose(scaled.y, c.y, rtol=1e-12)


def test_unit_peak():
    c = gaussian_curve().normalized("peak")
    assert c.peak() == pytest.approx(1.0, rel=1e-14)


def test_moments_of_gaussian():
    sigma = 2.0
    c = gaussian_curve(sigma)
    assert curve_mean(c) == pytest.approx(0.0, abs=1e-12)
    assert curve_rms(c) == pytest.approx(sigma, rel=1e-6)
    assert abs(excess_kurtosis(c)) < 1e-5


def test_fwhm_single_peak():
    c = gaussian_curve(2.0)
    expected = 2.0 * math.sqrt(2.0 * math.log(2.0)) * 2.0
    assert fwhm(c) == pytest.approx(expected, rel=1e-4)


def test_fwhm_two_islands():
    x = np.linspace(-10, 10, 8001)
    y = np.exp(-0.5 * ((x - 4) / 0.5) ** 2) + np.exp(-0.5 * ((x + 4) / 0.5) ** 2)
    c = Curve(x=x, y=y)
    expected = 2.0 * (2.0 * math.sqrt(2.0 * math.log(2.0)) * 0.5)
    assert fwhm(c) == pytest.approx(expected, rel=1e-3)


def test_fwhm_flat_top_whole_grid():
    x = np.linspace(0, 1, 11)
    c = Curve(x=x, y=np.ones(11))
    assert fwhm(c) == pytest.approx(1.0, rel=1e-12)


def test_half_area_width_gaussian():
    # the central half of a Gaussian spans 2 * 0.6745 sigma
    sigma = 2.0
    assert gaussian_curve(sigma).half_area_width() == pytest.approx(
        1.3490 * sigma, rel=1e-3)


def test_half_area_width_two_boxes():
    # two equal disjoint boxes: half the area is one box, whatever the gap
    x = np.linspace(0.0, 6.0, 60001)
    y = (((x >= 1.0) & (x <= 2.0)) | ((x >= 4.0) & (x <= 5.0))).astype(float)
    assert Curve(x=x, y=y).half_area_width() == pytest.approx(1.0, rel=1e-3)


def test_half_area_width_of_all_zero_curve_is_refused():
    # as normalized refuses it: the curve of an empty coincidence scan is one
    c = Curve(x=np.linspace(0.0, 1.0, 5), y=np.zeros(5))
    with pytest.raises(ValueError, match="all-zero"):
        c.half_area_width()


def test_argmax_x():
    x = np.linspace(-5, 5, 101)
    c = Curve(x=x, y=np.exp(-((x - 1.3) ** 2)))
    assert argmax_x(c) == pytest.approx(1.3, abs=0.1)


def test_write_read_roundtrip(tmp_path):
    c = gaussian_curve(1.5, n=101, span=4.0).normalized("area")
    path = tmp_path / "curve.dat"
    c.write(path, ["curve", "note: roundtrip", "columns: x y"])
    back = np.loadtxt(path)
    np.testing.assert_allclose(back[:, 0], c.x, rtol=1e-12)
    np.testing.assert_allclose(back[:, 1], c.y, rtol=1e-12)
    # the header lines, each `# `-prefixed, then rows only
    text = path.read_text().splitlines()
    assert text[:3] == ["# curve", "# note: roundtrip", "# columns: x y"]
    assert not any(line.startswith("#") for line in text[3:])


# the block writer's tables, pinned word for word, so that a cheaper
# construction cannot change them unseen
def test_four_digit_table_is_the_ascii_of_each_index():
    quads = curves._tables()[1]
    assert quads.dtype == np.dtype("<u4")
    assert quads.tobytes() == "".join("%04d" % i for i in range(10_000)).encode()


def test_exponent_table_is_e_and_two_signed_digits():
    exps = curves._tables()[2]
    e = range(-99, 100)
    assert exps.dtype == np.dtype("<u4")
    assert (exps[[k + curves._E_MAX for k in e]].tobytes()
            == "".join("e%+03d" % k for k in e).encode())


def test_powers_of_ten_are_the_parsed_literals():
    pow10 = curves._tables()[0]
    assert pow10.tolist() == [float(f"1e{12 - k}")
                              for k in range(-curves._E_MAX, curves._E_MAX + 1)]


def test_head_and_slot_tables():
    heads, slots = curves._tables()[3:]
    assert heads.tobytes() == b"".join(b"\0" + sign + b"%d." % d
                                       for sign in (b"\0", b"-") for d in range(10))
    assert [bytes(slot).rstrip(b"\0") for slot in slots] == [
        b"\0%.12e", b"\0nan", b"\0inf", b"\0-inf"]


def assert_writes_as_rows(tmp_path, columns):
    header = ["table", "columns: " + " ".join(f"c{i}" for i in range(len(columns)))]
    curves.write_table(tmp_path / "blocks.dat", header, columns)
    write_table_rows(tmp_path / "rows.dat", header, columns)
    assert ((tmp_path / "blocks.dat").read_bytes()
            == (tmp_path / "rows.dat").read_bytes())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_write_table_matches_row_writer(tmp_path, data):
    # any float at all: NaN, +-inf, +-0 and subnormals included
    n_cols = data.draw(st.integers(1, 4))
    n_rows = data.draw(st.integers(1, 40))
    values = data.draw(st.lists(st.floats(), min_size=n_cols * n_rows,
                                max_size=n_cols * n_rows))
    assert_writes_as_rows(tmp_path, [values[i::n_cols] for i in range(n_cols)])


def _adversarial_values():
    rng = np.random.default_rng(20261018)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # 14-digit integers ending in 5 lie exactly halfway between two
    # 13-digit mantissas; their power-of-two multiples put ties and
    # near-ties at other exponents
    ties = (10 * rng.integers(10**12, 10**13, 2000) + 5).astype(float)
    scaled = np.concatenate([ties * 2.0 ** k for k in range(-200, 201, 20)])
    # the doubles nearest 14-digit decimals ending in 5: within an ulp of a tie
    near = np.array([float(f"{m}5e{k}") for m, k in zip(
        rng.integers(10**12, 10**13, 4000), rng.integers(-130, 110, 4000))])
    nines = 9.9999999999995 * powers[(powers > 1e-300) & (powers < 1e300)]
    values = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, np.finfo(float).tiny,
         np.nan, np.inf, -np.inf],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        ties, scaled, near, nines, np.nextafter(nines, 0.0),
        np.nextafter(nines, np.inf)])
    return np.concatenate([values, -values])


def test_write_table_matches_row_writer_on_edge_values(tmp_path):
    values = _adversarial_values()
    assert_writes_as_rows(tmp_path, [values])
    assert_writes_as_rows(tmp_path, [values, values[::-1], np.roll(values, 7)])


# one row, the seams after one and after two full blocks, and tables of
# several blocks that end in a partial one
@pytest.mark.parametrize("rows", [1] + [k * curves._BLOCK_ROWS + d for k in (1, 2)
                                        for d in (-1, 0, 1)]
                         + [k * curves._BLOCK_ROWS + 5 for k in (3, 6)])
def test_write_table_block_seams(tmp_path, rows):
    rng = np.random.default_rng(rows)
    values = _adversarial_values()
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows),
               rng.choice(values, rows), np.arange(rows, dtype=float),
               np.full(rows, np.nan), np.where(np.arange(rows) % 2, -np.inf, np.inf)]
    assert_writes_as_rows(tmp_path, columns)
