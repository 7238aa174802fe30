"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py pass  SPEC.json RESULT.json
    python3 perfbench/child.py setup SPEC.json
    python3 perfbench/child.py probe SPEC.json RESULT.json

``pass`` imports biphoton, optionally wraps the public functions of each
layer with span recorders (``trace`` in the spec), runs the spec's
command list through ``biphoton.cli.main`` one at a time and writes the
timings, exit codes, resource usage and spans to RESULT.json.  A command
that raises is recorded as failed and the pass goes on.

``probe`` evaluates ``plane_restricted_curve`` directly on the spec's
grids, for the in-plane reference error.

``setup`` builds a ready ``SpdcParams`` (import, ``load_crystal``,
``from_crystal``) for the spec's configuration and prints ``ready``; the
parent times the interval from process start to that line.

The parent puts ``src`` on PYTHONPATH and pins the thread pools to one
thread; this file never looks at the repository layout itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _setup(spec):
    from biphoton import SpdcParams, load_crystal

    cfg = spec["params"]
    disp = load_crystal()
    SpdcParams.from_crystal(disp, cfg["lambda_p"], cfg["waist"], cfg["length"],
                            phi0=cfg.get("phi0"), theta0=cfg.get("theta0"))
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _peak_rss_mb():
    """High-water resident set of this process image, MB.

    ru_maxrss survives exec, so a child would report its parent's peak;
    VmHWM belongs to the process image alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probe(spec):
    """In-plane curve of each configuration on a grid that resolves its peak."""
    from biphoton import SpdcParams, load_crystal
    from biphoton.distributions import plane_restricted_curve
    from oracle import plane_peak_grid

    disp = load_crystal()
    out = []
    for cfg in spec["configs"]:
        params = SpdcParams.from_crystal(
            disp, cfg["lambda_p"], cfg["waist"], cfg["length"],
            phi0=cfg.get("phi0"), theta0=cfg.get("theta0"))
        kappa = plane_peak_grid(params.theta0, params.sinc_scale,
                                params.lambda_p, params.w_p)
        curve = plane_restricted_curve(kappa, params)
        out.append({"kappa": kappa.tolist(), "y": curve.y.tolist(),
                    "theta0": params.theta0, "scale": params.sinc_scale,
                    "lambda_p": params.lambda_p, "w_p": params.w_p})
    return out


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_pass(spec):
    from biphoton import cli
    from tracing import Tracer, install

    tracer = Tracer() if spec["trace"] else None
    missing = install(tracer) if tracer else []
    main = cli.main
    commands = []
    cpu0 = _cpu_seconds()
    wall0 = time.perf_counter()
    for cmd in spec["commands"]:
        start = time.perf_counter()
        error = trace_text = None
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(cmd["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:            # counted as a failed operation
                code, error = None, f"{type(exc).__name__}: {exc}"
                trace_text = traceback.format_exc()
        commands.append({"seconds": time.perf_counter() - start, "exit": code,
                         "error": error, "traceback": trace_text})
    wall = time.perf_counter() - wall0
    cpu = _cpu_seconds() - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "commands": commands,
        "spans": [list(s) for s in tracer.spans] if tracer else None,
        "counts": tracer.counts if tracer else None,
        "missing_trace_points": missing,
    }


def main(argv):
    mode, spec_path = argv[0], argv[1]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "setup":
        _setup(spec)
        return 0
    result = _probe(spec) if mode == "probe" else _run_pass(spec)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
