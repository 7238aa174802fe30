"""Span recording around each layer's public functions, and the self-time roll-up.

The child process wraps the functions listed in TRACE_POINTS from
outside the package; the parent turns the recorded spans into per-layer
metrics.  A span is (name, start, end, parent index); a layer's self
time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time


class Tracer:
    """Span recorder: (name, start, end, parent) per call, parents by nesting."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result
        return traced


def _bytes_written(args, result):
    return {"curves.bytes_written": os.path.getsize(args[1])}


def _pairs(args, result):
    return {"ringscan.pairs_sampled": len(result)}


def _captured(args, result):
    return {"ringscan.coincidences": float(result.counts.sum())}


# (module, owner attribute or None, function attribute, span name, counter).
# Each entry is the attribute the caller looks up at call time: the CLI
# calls `cr.phase_match`, while SpdcParams.from_crystal calls the name it
# imported into biphoton.wavefunction, so both bindings are wrapped.
TRACE_POINTS = [
    ("biphoton.cli", None, "main", "cli.main", None),
    ("biphoton.crystal", None, "load_crystal", "crystal.load_crystal", None),
    ("biphoton.crystal", None, "phase_match", "crystal.phase_match", None),
    ("biphoton.wavefunction", None, "phase_match", "crystal.phase_match", None),
    ("biphoton.crystal", None, "collinear_cut_angle",
     "crystal.collinear_cut_angle", None),
    ("biphoton.wavefunction", "SpdcParams", "from_crystal",
     "wavefunction.from_crystal", None),
    ("biphoton.distributions", None, "pump_envelope",
     "wavefunction.pump_envelope", None),
    ("biphoton.distributions", None, "f_exact", "distributions.f_exact", None),
    ("biphoton.distributions", None, "f_approx", "distributions.f_approx", None),
    ("biphoton.distributions", None, "single_particle_curve",
     "distributions.single_particle_curve", None),
    ("biphoton.distributions", None, "coincidence_curve",
     "distributions.coincidence_curve", None),
    ("biphoton.distributions", None, "plane_restricted_curve",
     "distributions.plane_restricted_curve", None),
    ("biphoton.ringscan", None, "sample_pairs", "ringscan.sample_pairs", _pairs),
    ("biphoton.ringscan", None, "scan_single", "ringscan.scan_single", None),
    ("biphoton.ringscan", None, "scan_coincidence", "ringscan.scan_coincidence",
     _captured),
    ("biphoton.curves", "Curve", "write", "curves.write", _bytes_written),
    ("biphoton.ringscan", "ScanResult", "write", "curves.write", _bytes_written),
]


def install(tracer):
    """Wrap every trace point; returns the ones that do not exist."""
    missing = []
    for module_name, owner_name, attr, name, count in TRACE_POINTS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        # a class's own __dict__ keeps the classmethod object unbound
        raw = vars(owner).get(attr)
        if raw is None:
            missing.append(f"{module_name}:{owner_name or ''}.{attr}")
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, count)))
        else:
            setattr(owner, attr, tracer.wrap(name, raw, count))
    return missing


def check_nesting(spans):
    """Raise ValueError unless every span lies inside its parent's interval."""
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {i} ({name}) ends before it starts")
        if parent is None:
            continue
        if not 0 <= parent < i:
            raise ValueError(f"span {i} ({name}) has parent {parent} out of order")
        _, p_start, p_end, _ = spans[parent]
        if start < p_start or end > p_end:
            raise ValueError(f"span {i} ({name}) leaves its parent {parent}")


def self_times(spans):
    """Per span name: (calls, self seconds), self = duration minus child spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, covered):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - inner)
    return out
