"""The benchmark's workloads: which committed configs each one runs.

Every workload runs committed `configs/*.json` unchanged, except
`approx-sweep`, whose 1..sweep_max sweep is replaced by a seeded,
stratified sample of k.  Only `approx-sweep` uses the seed.

An operation is one config run, or one sampled k of a replaced sweep;
each runs in its own process, as one `envlab <exp> --config` call does.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = {
    # norm quadrature plus kernel/measure assembly with v = 0: whole-line
    # FS tails (vtheta, third-quarter) and a compact K (annulus)
    "bergman-fs": ("bergman_vtheta", "bergman_third_quarter", "bergman_annulus"),
    # the only nonzero sampled weight v, the reference basis and MA energies
    "energy-bump": ("energy_bump",),
    # singular-weight e^{-ku} norms over many k, no kernel assembly
    "approx-sweep": ("approx_third_quarter", "approx_vtheta"),
    # exact rational counting and closed-form envelopes: no quadrature
    "exact-counts": ("volume_simplex", "volume_half_square", "volume_sqrt2",
                     "volume_third_quarter", "envelope_third_quarter"),
}

SEEDED = ("approx-sweep",)

# One k per bin; stratified_sample pairs the bins, so the count is even.
# The full 1..500 sweep takes about 17 min and k near 500 costs about
# 4 s, so four bins keep one round of approx-sweep near 20 s.
SWEEP_BINS = 4

# Gate failures the program reports at the parent commit; more than this
# on any config marks the outputs incorrect.  volume_third_quarter's 500
# are the d = +1 counting defect, kept visible on purpose.
KNOWN_GATE_FAILURES = {"volume_third_quarter": 500}


def stratified_sample(seed: int, hi: int) -> list[int]:
    """One k from each of SWEEP_BINS equal-width bins of [1, hi].

    Bins are paired, first with second and so on, and the second of a
    pair mirrors its partner's offset, so every seed samples nearly the
    same total k, hence similar work.
    """
    rng = random.Random(seed)
    width = hi // SWEEP_BINS
    ks = []
    for first in range(0, SWEEP_BINS, 2):
        offset = rng.randrange(width)
        ks += [1 + first * width + offset, (first + 2) * width - offset]
    return ks


SWEEP_TAG = ".sweep[k="


def operations(root: str, workload: str, seed: int) -> list[str]:
    """The workload's operations: config names, then `<config>.sweep[k=K]`."""
    ops, sweeps = [], []
    for name in WORKLOADS[workload]:
        ops.append(name)
        if workload in SEEDED:
            with open(os.path.join(root, "configs", f"{name}.json")) as fh:
                sweep_max = json.load(fh).get("sweep_max", 0)
            if sweep_max:
                sweeps += [f"{name}{SWEEP_TAG}{k}]"
                           for k in stratified_sample(seed, sweep_max)]
    return ops + sweeps


def split_operation(op: str) -> tuple[str, int | None]:
    """(config name, sampled k or None)."""
    name, tag, rest = op.partition(SWEEP_TAG)
    return name, (int(rest.rstrip("]")) if tag else None)
