#!/usr/bin/env python
"""Lattice-Boltzmann channel flow under the section lens.

The paper motivates its convolution benchmark by its proximity to
Lattice-Boltzmann methods; this example runs a real D2Q9 LBM channel
flow on the simulator, prints the developed Poiseuille profile (an
ASCII plot — the physics is real), and then applies exactly the same
section-based scaling analysis as the convolution study, showing the
methodology transfers unchanged to a different stencil code.

Run:  python examples/lbm_flow.py
(REPRO_EXAMPLE_FAST=1 shrinks the run to CI-smoke scale, seconds.)
"""

import os

from repro.core.analysis import ScalingAnalysis
from repro.core.profile import ScalingProfile, SectionProfile
from repro.core.report import format_dict_rows
from repro.machine import nehalem_cluster
from repro.workloads.lbm import LBMConfig, LBMWorkload

FAST = os.environ.get("REPRO_EXAMPLE_FAST", "") not in ("", "0")
PHYSICS_STEPS = 50 if FAST else 400
SCALING_CFG = dict(ny=48, nx=48, steps=8) if FAST else dict(ny=192, nx=192, steps=40)
PROCESS_COUNTS = (1, 2, 4, 8) if FAST else (1, 2, 4, 8, 16, 32, 64)


def ascii_profile(prof, width=48):
    top = max(prof)
    lines = []
    for i, u in enumerate(prof):
        bar = "#" * max(1, round(width * u / top))
        lines.append(f"  y={i:2d} |{bar}")
    return "\n".join(lines)


if __name__ == "__main__":
    machine = nehalem_cluster(nodes=8)

    # 1. physics: develop the flow and show the parabolic profile
    bench = LBMWorkload.from_config(LBMConfig(ny=16, nx=24, steps=PHYSICS_STEPS))
    summary = bench.collect(bench.run(4, machine=machine))
    print("developed channel-flow profile (mean u_x per row):")
    print(ascii_profile(summary["ux_profile"]))
    print(f"\nmass drift over {PHYSICS_STEPS} steps: "
          f"{summary['mass_drift']:.2e} (exact conservation)\n")

    # 2. scaling: the convolution study's analysis, unchanged
    bench = LBMWorkload.from_config(LBMConfig(**SCALING_CFG))
    profile = ScalingProfile("p")
    for p in PROCESS_COUNTS:
        res = bench.run(
            p, machine=machine, compute_jitter=0.02, noise_floor=80e-6,
            seed=100 + p,
        )
        assert bench.collect(res)["mass_drift"] < 1e-12
        profile.add(p, SectionProfile.from_run(res))
        print(f"p={p:3d}  walltime={res.walltime*1e3:9.3f} ms  "
              f"msgs={res.network['messages']}")

    analysis = ScalingAnalysis(profile)
    print()
    print(format_dict_rows(analysis.breakdown_rows(
        labels=["COLLIDE", "STREAM", "HALO", "MACRO"]),
        title="% of execution per section (the Figure 5(a) view, LBM)"))
    print()
    print(format_dict_rows(analysis.speedup_rows(bound_label="HALO"),
                           title="speedup + HALO partial bound (Eq. 6)"))
    print()
    binding = analysis.binding_sections()
    worst = binding[max(binding)]
    print(f"binding section at p={max(binding)}: {worst.label!r} "
          f"(bound {worst.bound:.1f}x) — same diagnosis workflow as the "
          "paper's convolution study, zero workload-specific tooling.")
