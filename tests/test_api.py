import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

import biphoton
from biphoton import cli

# what `import biphoton` binds in a fresh interpreter: the five layer
# modules it imports from, and the names it re-exports
PUBLIC_NAMES = [
    "CrystalDispersion", "CrystalFileError", "Curve",
    "NoCollinearRootError", "NoRingError", "SpdcParams",
    "WavelengthRangeError", "coincidence_curve", "collinear_cut_angle",
    "crystal", "curves", "default_kappa_grid", "distributions",
    "entanglement_report", "f_approx", "f_exact", "index_ordinary",
    "load_crystal", "opening_angle_fit", "phase_match",
    "plane_restricted_curve", "pump_envelope",
    "reduced_bipartite", "ring_from_params", "ringscan", "sample_pairs",
    "scan_coincidence", "scan_single", "single_particle_curve",
    "wavefunction",
]

_LIST_NAMES = ("import biphoton; print(' '.join(sorted("
               "n for n in vars(biphoton) if not n.startswith('_'))))")


def test_public_names_are_pinned():
    # a child process, since importing a submodule (biphoton.cli) elsewhere
    # in the session binds it on the package too
    src = os.path.dirname(os.path.dirname(os.path.abspath(biphoton.__file__)))
    proc = subprocess.run([sys.executable, "-c", _LIST_NAMES],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 30


def _public_callables():
    """Public functions, classes other than exceptions, and their methods."""
    for name in PUBLIC_NAMES:
        obj = getattr(biphoton, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            yield name, obj
            for attr in vars(obj):
                member = getattr(obj, attr)
                if not attr.startswith("_") and callable(member):
                    yield f"{name}.{attr}", member


def test_no_public_callable_takes_rel_tol():
    # the requested accuracy is checked once, by the command-line front end;
    # exact= and azimuth_origin= are retired knobs that only tests set
    checked = 0
    for name, obj in _public_callables():
        params = inspect.signature(obj).parameters
        for retired in ("rel_tol", "exact", "azimuth_origin"):
            assert retired not in params, (name, retired)
        checked += 1
    assert checked == 29


def test_all_lists_resolve_and_hold_the_package_names():
    # a stale __all__ entry, or a name the package takes from a module that
    # does not declare it
    for name in PUBLIC_NAMES:
        obj = getattr(biphoton, name)
        if inspect.ismodule(obj):
            assert [n for n in obj.__all__ if not hasattr(obj, n)] == [], name
        else:
            assert name in sys.modules[obj.__module__].__all__, name


def test_curve_write_takes_the_path_first():
    # the benchmark wraps Curve.write and counts the bytes of the file its
    # args[1] names
    params = list(inspect.signature(biphoton.Curve.write).parameters)
    assert params[:2] == ["self", "path"]


# the benchmark's trace point that names a class no longer in the package
_STALE_TRACE_POINTS = {("biphoton.ringscan", "ScanResult", "write")}


def _perfbench(name):
    """The benchmark's module perfbench/<name>.py, loaded from its file."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(root, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_points_resolve():
    # perfbench wraps each layer's functions by name; read its table without
    # calling its install(), which patches the package
    tracing = _perfbench("tracing")
    missing = []
    for module_name, owner_name, attr, _, _ in tracing.TRACE_POINTS:
        if (module_name, owner_name, attr) in _STALE_TRACE_POINTS:
            continue
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        if vars(owner).get(attr) is None:
            missing.append(f"{module_name}:{owner_name or ''}.{attr}")
    assert missing == []
    assert len(tracing.TRACE_POINTS) - len(_STALE_TRACE_POINTS) == 16


@pytest.mark.parametrize("config", ["A", "default"])
def test_benchmark_gates_pass(tmp_path, monkeypatch, config):
    # the benchmark fails an operation whose fcurve or scan tables its checks
    # reject; run both commands on its configs and apply those checks
    monkeypatch.setitem(sys.modules, "oracle", _perfbench("oracle"))
    checks = _perfbench("checks")
    flags = [*_perfbench("workloads").config_flags(config), "--grid", "201"]
    fcurve, scan = str(tmp_path / "fcurve"), str(tmp_path / "scan")
    assert cli.main(["fcurve", *flags, "--out", fcurve]) == 0
    assert cli.main(["scan", *flags, "--pairs", "1000000", "--seed", "7",
                     "--out", scan]) == 0
    assert checks.check_fcurve(fcurve, 7) is None
    assert checks.check_scan(scan) is None
