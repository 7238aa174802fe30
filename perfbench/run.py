"""biphoton benchmark: CLI workloads timed end to end, plus a traced per-layer pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.
Each pass is one fresh child process that runs the workload's commands
through ``biphoton.cli.main`` one at a time (a closed loop with one
client).  A run repeats passes until S seconds have gone by; the first
pass is the reference that every later pass's output bytes must equal.
The pass time reported is that of the fastest pass (see ``fastest``),
divided by the machine's slowdown, measured between passes with a fixed
calibration kernel (see ``calibration_seconds``); set-up time is the
median of the set-up probes made between passes.

``--trace 0`` prints the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics: self times and counts from the fastest traced pass,
with spans recorded around each layer's public functions, plus the
fastest per-command times of the untraced passes and the tracing
overhead.  Every command's outputs are checked (see checks.py); a
failed check counts as a failed operation and never aborts the run.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Work files go to ``.bench_out/<workload>/`` under the current directory:
the reference pass's tables, ``run.json`` (environment record, per-pass
timings, failures) and, with tracing, ``spans.json``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import oracle
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = ".bench_out"
CHILD_TIMEOUT_S = 150.0
MIN_PASSES = 3
MIN_TRACED_PASSES = 2     # and as many untraced ones in a traced run
MIN_SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "pass_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

LAYERS = ("crystal", "wavefunction", "distributions", "ringscan", "curves", "cli")

PER_LAYER = {
    "distributions.f_exact.calls": ("count", "lower"),
    "distributions.f_exact.self_s": ("s", "lower"),
    "distributions.f_exact.us_per_call": ("us", "lower"),
    "distributions.f_exact.ref_err": ("ratio", "lower"),
    "distributions.single_particle_curve.self_s": ("s", "lower"),
    "distributions.coincidence_curve.self_s": ("s", "lower"),
    "distributions.f_approx.self_s": ("s", "lower"),
    "distributions.plane_restricted_curve.self_s": ("s", "lower"),
    "distributions.plane_restricted_curve.ref_err": ("ratio", "lower"),
    "ringscan.sample_pairs.self_s": ("s", "lower"),
    "ringscan.sample_pairs.pairs_per_s": ("1/s", "higher"),
    "ringscan.scan_single.self_s": ("s", "lower"),
    "ringscan.scan_coincidence.self_s": ("s", "lower"),
    "ringscan.capture_ratio": ("ratio", "higher"),
    "crystal.phase_match.calls": ("count", "lower"),
    "crystal.phase_match.self_s": ("s", "lower"),
    "crystal.load_crystal.self_s": ("s", "lower"),
    "crystal.collinear_cut_angle.self_s": ("s", "lower"),
    "wavefunction.self_s": ("s", "lower"),
    "curves.write.self_s": ("s", "lower"),
    "curves.bytes_written": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    **{f"share.{layer}": ("%", "lower") for layer in LAYERS},
    **{f"cmd.{cmd}_s": ("s", "lower") for cmd in workloads.COMMANDS},
    "pairs_per_s": ("1/s", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "machine.slowdown": ("ratio", "lower"),
}


# Reference time of calibration_seconds(), near its fastest timing seen
# on a 2-vCPU x86_64 VM (Python 3.11, numpy 2.4); it sets only the scale
# of pass_s, which reads as seconds on a machine that fast.
CALIBRATION_NOMINAL_S = 0.08
CALIBRATIONS_PER_PASS = 2


def calibration_seconds():
    """One timing of a fixed kernel: a fresh 64 MB random array, a sum, a histogram.

    On a shared machine the speed drifts by up to 60% for minutes at a
    time, and every pass of a run slows with it.  This kernel does the
    package's heaviest kind of work (random numbers into large fresh
    arrays, then binning); dividing the fastest pass by the kernel's
    fastest timing in the same run narrowed the run-to-run spread on
    most workloads in trial runs (BASELINE.md).
    """
    start = time.perf_counter()
    big = np.random.default_rng(1).random(8_000_000)
    float((big * 1.5 + 2.0).sum())
    np.histogram(big[:2_000_000], bins=241)
    return time.perf_counter() - start


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, broken child)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join("src", "biphoton"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".crystal")):
                path = os.path.join(folder, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(args, env):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


class Runner:
    """Runs passes and setup probes for one workload and seed."""

    def __init__(self, workload, seed, small=False):
        self.workload, self.seed, self.small = workload, seed, small
        self.env = child_env()
        self.dir = os.path.join(WORK_DIR, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.checker = checks.Checker(seed)
        self.attempted = 0
        self.failures = []
        cfg = workloads.CONFIGS[workloads.WORKLOADS[workload]["steps"][0][1]]
        self.setup_spec = self._write_spec("setup", {"params": cfg})

    def _write_spec(self, name, spec):
        path = os.path.join(self.dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return path

    def setup_probe(self):
        """Seconds from spawning an interpreter to its ready SpdcParams."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, "setup", self.setup_spec],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError("setup probe failed: " + err.decode(errors="replace")[-2000:])
        return elapsed

    def probe(self, configs):
        """The in-plane curves of child.py's probe mode, one per configuration."""
        spec = self._write_spec("probe", {"configs": configs})
        result_path = os.path.join(self.dir, "probe.result.json")
        proc = subprocess.run([sys.executable, CHILD, "probe", spec, result_path],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              env=self.env, timeout=CHILD_TIMEOUT_S)
        os.remove(spec)
        if proc.returncode != 0:
            raise BenchError("in-plane probe failed: "
                             + proc.stderr.decode(errors="replace")[-2000:])
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
        return result

    def run_pass(self, pass_id, trace):
        """One pass in a fresh child; returns its record with failures judged."""
        out_root = os.path.join(self.dir, f"pass{pass_id}")
        steps = workloads.steps(self.workload, self.seed, out_root, self.small)
        spec = self._write_spec(f"pass{pass_id}",
                                {"commands": [{"argv": s["argv"]} for s in steps],
                                 "trace": trace})
        result_path = os.path.join(self.dir, f"pass{pass_id}.result.json")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, CHILD, "pass", spec, result_path],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              env=self.env, timeout=CHILD_TIMEOUT_S)
        if proc.returncode == 0:
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        else:
            reason = (f"child exited {proc.returncode}: "
                      + proc.stderr.decode(errors="replace")[-500:])
            result = {"commands": [{"seconds": 0.0, "exit": None, "error": reason}
                                   for _ in steps],
                      "wall_s": time.perf_counter() - start, "cpu_s": 0.0,
                      "peak_rss_mb": 0.0, "spans": [], "counts": {}}
        os.remove(spec)
        if os.path.exists(result_path):
            os.remove(result_path)
        result.update(pass_id=pass_id, traced=trace, steps=steps)
        result["failures"] = self.judge(steps, result["commands"])
        if result.get("spans"):
            tracing.check_nesting(result["spans"])
        if pass_id > 0:
            shutil.rmtree(out_root, ignore_errors=True)
        return result

    def judge(self, steps, commands):
        failures = []
        for index, (step, record) in enumerate(zip(steps, commands)):
            self.attempted += 1
            reason = self.checker.judge(index, step, record)
            if reason is not None:
                failures.append(f"{step['name']} {step['config']}: {reason}")
        self.failures += failures
        return failures


def fastest(passes):
    """The pass with the shortest wall time.

    Pass-to-pass variation on a shared machine is one-sided: the work is
    deterministic, and interference from other tenants only adds time.
    The fastest pass is therefore the steadier estimate of what the code
    costs (the same reasoning as timeit's best-of-N); BASELINE.md has
    the trial numbers.
    """
    return min(passes, key=lambda p: p["wall_s"])


def command_times(passes):
    """Fastest per-command seconds (summed over configs) and MC pairs per second."""
    out = {}
    for cmd in workloads.COMMANDS:
        per_pass = [sum(c["seconds"] for s, c in zip(p["steps"], p["commands"])
                        if s["name"] == cmd) for p in passes]
        out[f"cmd.{cmd}_s"] = min(per_pass)
    scan_s = out["cmd.scan_s"]
    pairs = sum(int(s["argv"][s["argv"].index("--pairs") + 1])
                for s in passes[0]["steps"] if s["name"] == "scan")
    out["pairs_per_s"] = pairs / scan_s if scan_s else 0.0
    return out


def layer_metrics(result):
    """Per-layer metrics of one traced pass."""
    spans = result["spans"]
    counts = result["counts"]
    st = tracing.self_times(spans)

    def self_s(name):
        return st.get(name, (0, 0.0))[1]

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    m = {}
    for name in ("distributions.f_exact", "distributions.single_particle_curve",
                 "distributions.coincidence_curve", "distributions.f_approx",
                 "distributions.plane_restricted_curve", "ringscan.sample_pairs",
                 "ringscan.scan_single", "ringscan.scan_coincidence",
                 "crystal.phase_match", "crystal.load_crystal",
                 "crystal.collinear_cut_angle", "curves.write"):
        m[f"{name}.self_s"] = self_s(name)
    n_f = calls("distributions.f_exact")
    m["distributions.f_exact.calls"] = n_f
    m["distributions.f_exact.us_per_call"] = (
        1e6 * self_s("distributions.f_exact") / n_f if n_f else 0.0)
    m["crystal.phase_match.calls"] = calls("crystal.phase_match")
    pairs = counts.get("ringscan.pairs_sampled", 0)
    sampling = self_s("ringscan.sample_pairs")
    m["ringscan.sample_pairs.pairs_per_s"] = pairs / sampling if sampling else 0.0
    m["ringscan.capture_ratio"] = (counts.get("ringscan.coincidences", 0.0) / pairs
                                   if pairs else 0.0)
    m["curves.bytes_written"] = counts.get("curves.bytes_written", 0)
    m["cli.self_s"] = self_s("cli.main")
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, (_, seconds) in st.items():
        by_layer[name.split(".", 1)[0]] += seconds
    m["wavefunction.self_s"] = by_layer["wavefunction"]
    for layer in LAYERS:
        m[f"share.{layer}"] = 100.0 * by_layer[layer] / result["wall_s"]
    m["trace.wall_s"] = result["wall_s"]
    return m


def reference_errors(runner, reference):
    """Max errors of f_exact (fcurve tables) and of the in-plane curve (probe)."""
    f_err = max([checks.f_exact_ref_err(step["out"]) for step in reference["steps"]
                 if step["name"] == "fcurve"], default=0.0)
    configs = [workloads.CONFIGS[step["config"]] for step in reference["steps"]
               if step["name"] == "distributions"]
    plane_err = 0.0
    if configs:
        for probe in runner.probe(configs):
            ref = oracle.plane_reference(probe["kappa"], probe["theta0"],
                                         probe["scale"], probe["lambda_p"],
                                         probe["w_p"])
            err = np.max(np.abs(np.array(probe["y"]) - ref)) / np.max(ref)
            plane_err = max(plane_err, float(err))
    return {"distributions.f_exact.ref_err": f_err,
            "distributions.plane_restricted_curve.ref_err": plane_err}


def measure(args):
    """Run the benchmark; returns (result line dict, run record dict)."""
    runner = Runner(args.workload, args.seed, small=args.small)
    record = {"env": environment(args, runner.env)}
    # bytecode and OS file caches, as an installed package has them
    compileall.compile_dir(os.path.join("src", "biphoton"), quiet=1)
    runner.setup_probe()
    probes, timed, traced = [], [], []
    min_timed = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    start = time.perf_counter()
    pass_id = 0
    calibrations = [calibration_seconds() for _ in range(CALIBRATIONS_PER_PASS)]
    while (time.perf_counter() - start < args.seconds or len(timed) < min_timed
           or (args.trace and len(traced) < MIN_TRACED_PASSES)):
        probes.append(runner.setup_probe())
        trace = bool(args.trace) and pass_id % 2 == 1
        (traced if trace else timed).append(runner.run_pass(pass_id, trace))
        calibrations += [calibration_seconds() for _ in range(CALIBRATIONS_PER_PASS)]
        pass_id += 1
    slowdown = min(calibrations) / CALIBRATION_NOMINAL_S
    reference = timed[0]
    while len(probes) < MIN_SETUP_PROBES:
        probes.append(runner.setup_probe())

    if args.trace:
        metrics = layer_metrics(fastest(traced))
        metrics.update(command_times(timed))
        metrics.update(reference_errors(runner, reference))
        metrics["trace.overhead_s"] = fastest(traced)["wall_s"] - fastest(timed)["wall_s"]
        metrics["wall_s"] = fastest(timed)["wall_s"]
        metrics["machine.slowdown"] = slowdown
        spans = [[*span, p["pass_id"]] for p in traced for span in p["spans"]]
        with open(os.path.join(runner.dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass_id"],
                       "spans": spans}, fh)
        table = PER_LAYER
    else:
        metrics = {
            "pass_s": fastest(timed)["wall_s"] / slowdown,
            "setup_s": statistics.median(probes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
        }
        table = END_TO_END

    failed = len(runner.failures)
    line = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }
    record.update(
        fail_ratio=failed / runner.attempted,
        failures=runner.failures,
        setup_probes_s=probes,
        calibrations_s=calibrations,
        passes=[{k: p.get(k) for k in ("pass_id", "traced", "wall_s", "cpu_s",
                                       "peak_rss_mb",
                                       "missing_trace_points")}
                | {"commands": [{"name": s["name"], "config": s["config"], **c}
                                for s, c in zip(p["steps"], p["commands"])]}
                for p in sorted(timed + traced, key=lambda p: p["pass_id"])],
        result=line,
    )
    with open(os.path.join(runner.dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced grids and pair counts (self-test)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "biphoton", "cli.py")):
        print("error: run from the repository root; src/biphoton/cli.py not found",
              file=sys.stderr)
        return 2
    try:
        line, record = measure(args)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print("env: " + json.dumps(record["env"], sort_keys=True))
    print(f"operations: {line['attempted']} attempted, {line['failed']} failed "
          f"(fail_ratio {record['fail_ratio']:.4g})")
    for reason in record["failures"][:20]:
        print("failed: " + reason, file=sys.stderr)
    missing = sorted({m for p in record["passes"] for m in p["missing_trace_points"] or ()})
    if missing:
        print("warning: trace points not found: " + ", ".join(missing), file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
