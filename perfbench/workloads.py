"""The benchmark's workloads: named command lists for ``biphoton.cli.main``.

Every workload runs in a closed loop: one client, one command at a time,
one fresh child process per pass.  Only ``scan`` takes the workload seed.
``small=True`` shrinks the grids, and the pair count to at most 1e6, for
the self-test.
"""

from __future__ import annotations

LAMBDA_P = 0.4047

# Reference configurations of the README plus the long-crystal case.
CONFIGS = {
    # strongly noncollinear set: u = S (2 theta0)^2 up to ~920
    "A": {"lambda_p": LAMBDA_P, "theta0": 0.28, "waist": 0.5, "length": 0.5},
    # moderate set: u up to ~23
    "B": {"lambda_p": LAMBDA_P, "theta0": 0.1, "waist": 0.1, "length": 0.1},
    # 10 cm crystal, tight waist: S ~ 5.8e4, u up to ~1.8e4
    "long": {"lambda_p": LAMBDA_P, "theta0": 0.28, "waist": 0.05, "length": 10.0},
    # CLI defaults: cut angle 0.5275 rad, waist and length 0.1 cm
    "default": {"lambda_p": LAMBDA_P, "phi0": 0.5275, "waist": 0.1, "length": 0.1},
}

WORKLOADS = {
    "reference-suite": {
        "why": "every command on both README configs (A, B) at grid 2001 and "
               "1e6 pairs: the everyday path, and the only one where crystal, "
               "cli and table writing show",
        "steps": [(cmd, cfg) for cfg in ("A", "B") for cmd in
                  ("dispersion", "fcurve", "distributions", "scan", "report")],
        "pairs": 1_000_000,
    },
    "long-crystal": {
        "why": "fcurve, distributions, report at L = 10 cm, w_p = 0.05 cm "
               "(u ~ 1.8e4): quadrature-bound, no ring scan, and the in-plane "
               "rule's known error shows",
        "steps": [(cmd, "long") for cmd in ("fcurve", "distributions", "report")],
    },
    "mc-scan": {
        "why": "scan alone at the CLI default config with 4e6 pairs: sampler- "
               "and histogram-bound, quadrature nearly idle, peak memory ~0.6 GB",
        "steps": [("scan", "default")],
        "pairs": 4_000_000,
    },
}

COMMANDS = ("dispersion", "fcurve", "distributions", "scan", "report")


_FLAGS = {"lambda_p": "--lambda-p", "theta0": "--theta0", "phi0": "--phi0",
          "waist": "--waist", "length": "--length"}


def config_flags(name):
    return [arg for key, value in CONFIGS[name].items()
            for arg in (_FLAGS[key], repr(value))]


def steps(workload, seed, out_root, small=False):
    """The pass's commands as dicts with name, config, out directory and argv."""
    spec = WORKLOADS[workload]
    result = []
    for cmd, cfg in spec["steps"]:
        out = f"{out_root}/{cmd}-{cfg}"
        argv = [cmd] + config_flags(cfg) + ["--out", out]
        if small:
            argv += ["--grid", "201"]
        if cmd == "scan":
            argv += ["--seed", str(seed)]
            pairs = spec["pairs"]
            argv += ["--pairs", str(min(pairs, 1_000_000) if small else pairs)]
        result.append({"name": cmd, "config": cfg, "out": out, "argv": argv})
    return result
