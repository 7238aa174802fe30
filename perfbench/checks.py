"""Output checks for one command of a pass, and the f_exact reference error.

An operation is one command plus its checks.  It fails when the command
does not exit 0, when its output bytes differ from the run's reference
pass (same seed, so they must be identical), or when the content checks
below reject the tables:

* ``fcurve``: the ``exact`` column of the difference-momentum tables at
  seed-chosen spot rows inside the cone, at the edge and just outside
  it equals the oracle G(u)/sqrt(S) to the run's ``rel_tol``;
* ``scan``: the Monte-Carlo single scan agrees with the theory bin by
  bin, measured as acceptance criterion 10 does: bin averages, unit
  area, bins within 0.002 of the cone-edge peaks excluded, sup-norm at
  most 3% of the theory's largest included value.

Content verdicts are cached by the digest of the command's outputs, so
identical bytes are judged once per run.
"""

from __future__ import annotations

import hashlib
import os
import random

import numpy as np

import oracle

MC_TOLERANCE = 0.03          # criterion 10: sup-norm over the included bins
EDGE_EXCLUSION = 0.002       # criterion 10: kappa half-width around each peak
SPOTS_PER_BAND = 2


def digests(out_dir):
    """sha256 of every file the command wrote, by file name."""
    if not os.path.isdir(out_dir):
        return {}
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def read_table(path):
    """Header fields (key=value pairs of `# config:`/`# resolved:`/`# meta:`) and data."""
    fields, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                body = line[1:].strip()
                tag, _, rest = body.partition(":")
                if tag in ("config", "resolved", "meta"):
                    for item in rest.split():
                        key, eq, value = item.partition("=")
                        if eq:
                            fields[key] = value.strip("'")
                continue
            if line.strip():
                rows.append([float(v) for v in line.split()])
    return fields, np.array(rows)


def _scale(fields):
    return oracle.sinc_scale(float(fields["lambda_p"]), float(fields["n_o"]),
                             float(fields["length"]))


def spot_rows(kappa, two_theta, rng, edge_table):
    """Seed-chosen row indices: inside the cone and just outside it, or the edge zoom."""
    a = np.abs(kappa)
    if edge_table:
        bands = [np.arange(len(kappa))]
    else:
        bands = [np.flatnonzero(a <= two_theta - 0.01),
                 np.flatnonzero((a > two_theta + 0.004) & (a <= 1.2 * two_theta))]
    rows = []
    for band in bands:
        if band.size == 0:
            raise ValueError("spot band is empty")
        rows += rng.sample(sorted(band.tolist()), min(SPOTS_PER_BAND, band.size))
    return rows


def check_fcurve(out_dir, seed):
    """Return None when the spot values hold, else the reason."""
    rng = random.Random(seed)
    for name in ("difference_distribution.dat", "difference_distribution_edge.dat"):
        fields, data = read_table(os.path.join(out_dir, name))
        rel_tol = float(fields["rel_tol"])
        theta0, scale = float(fields["theta0"]), _scale(fields)
        for row in spot_rows(data[:, 0], 2.0 * theta0, rng,
                             name.endswith("_edge.dat")):
            kappa, value = data[row, 0], data[row, 1]
            ref = oracle.f_reference(kappa, theta0, scale)
            if not abs(value - ref) <= rel_tol * abs(ref):
                return (f"{name} kappa={kappa:.6g}: {value:.12e} vs oracle "
                        f"{ref:.12e} (rel {value / ref - 1.0:+.2e} > {rel_tol:g})")
    return None


def check_scan(out_dir):
    fields, table = read_table(os.path.join(out_dir, "scan_comparison.dat"))
    _, mc = read_table(os.path.join(out_dir, "scan_single_mc.dat"))
    z, theta0 = float(fields["z"]), float(fields["theta0"])
    centers = mc[:, 0] / z
    if not np.allclose(centers, table[:, 0], rtol=0.0, atol=1e-12):
        return "scan_single_mc.dat and scan_comparison.dat grids differ"
    h = centers[1] - centers[0]
    edges = np.concatenate([centers - 0.5 * h, [centers[-1] + 0.5 * h]])
    theory = oracle.single_bin_averages(edges, theta0, _scale(fields))

    def unit_area(v):
        return v / np.trapezoid(v, centers)

    m, t = unit_area(mc[:, 1]), unit_area(theory)
    included = np.ones(len(centers), dtype=bool)
    for peak in (theta0, -theta0):
        included &= ~((edges[:-1] < peak + EDGE_EXCLUSION)
                      & (edges[1:] > peak - EDGE_EXCLUSION))
    ref = t[included].max()
    sup = float(np.max(np.abs(m - t)[included]))
    if not sup <= MC_TOLERANCE * ref:
        return f"mc-theory sup-norm {sup / ref:.2%} of peak > {MC_TOLERANCE:.0%}"
    return None


class Checker:
    """Judges every command of every pass against the run's reference pass."""

    def __init__(self, seed):
        self.seed = seed
        self.reference = {}      # (step index) -> digests of the reference pass
        self._verdicts = {}      # (command, digests) -> reason or None

    def judge(self, index, step, record):
        """None when the operation passed, else a one-line reason."""
        if record.get("error"):
            return record["error"]
        if record.get("exit") != 0:
            return f"exit code {record.get('exit')}"
        found = digests(step["out"])
        if not found:
            return "no output files"
        expected = self.reference.setdefault(index, found)
        if found != expected:
            changed = sorted(k for k in set(found) | set(expected)
                             if found.get(k) != expected.get(k))
            return "output bytes differ from the reference pass: " + ", ".join(changed)
        key = (step["name"], tuple(sorted(found.items())))
        if key not in self._verdicts:
            self._verdicts[key] = self._content(step)
        return self._verdicts[key]

    def _content(self, step):
        try:
            if step["name"] == "fcurve":
                return check_fcurve(step["out"], self.seed)
            if step["name"] == "scan":
                return check_scan(step["out"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None


def f_exact_ref_err(out_dir, stride=20):
    """Max relative error of the fcurve ``exact`` column against the oracle.

    Every ``stride``-th row of both tables, so the whole kappa range is
    covered, far outside the cone included.
    """
    worst = 0.0
    for name in ("difference_distribution.dat", "difference_distribution_edge.dat"):
        fields, data = read_table(os.path.join(out_dir, name))
        theta0, scale = float(fields["theta0"]), _scale(fields)
        for kappa, value in data[::stride, :2]:
            ref = oracle.f_reference(kappa, theta0, scale)
            worst = max(worst, abs(value / ref - 1.0))
    return worst

