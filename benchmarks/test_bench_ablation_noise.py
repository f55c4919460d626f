"""Ablation — noise sources behind the Figure 5(b) communication growth.

The paper attributes the growing, noisy HALO totals to "the decreasing
computation time which does not recover communication jitter, leading to
an accumulation of this variability".  This ablation switches the two
modeled noise sources off independently — the additive OS-noise floor on
compute, and the heavy-tail network spikes — and measures each one's
contribution to the HALO section at scale.
"""

from repro.core.profile import SectionProfile
from repro.core.report import format_dict_rows
from repro.machine.catalog import nehalem_cluster
from repro.workloads.convolution import ConvolutionConfig, ConvolutionWorkload

from benchmarks.conftest import save_artifact

P = 64
CFG = ConvolutionConfig(height=288, width=432, steps=60)


def _halo_total(noise_floor: float, spikes: bool, seed: int = 0) -> float:
    jitter = 0.08 if spikes else 0.0
    mach = nehalem_cluster(nodes=8, jitter=jitter)
    if not spikes:
        # Rebuild the tiers without heavy tails.
        from dataclasses import replace

        mach = replace(
            mach,
            intra_node=replace(mach.intra_node, spike_prob=0.0),
            inter_node=replace(mach.inter_node, spike_prob=0.0),
        )
    bench = ConvolutionWorkload.from_config(CFG)
    res = bench.run(P, machine=mach, seed=seed, compute_jitter=0.02,
                    noise_floor=noise_floor)
    return SectionProfile.from_run(res).total("HALO")


def test_ablation_noise_sources(benchmark):
    rows = []
    for label, nf, spikes in (
        ("quiet network, no OS noise", 0.0, False),
        ("OS-noise floor only", 120e-6, False),
        ("network spikes only", 0.0, True),
        ("both (the Figure 5 model)", 120e-6, True),
    ):
        total = _halo_total(nf, spikes)
        rows.append({"configuration": label, "halo_total_s": total})
    save_artifact(
        "ablation_noise",
        format_dict_rows(rows, title=f"[ablation] HALO total at p={P} by noise source"),
    )
    quiet = rows[0]["halo_total_s"]
    full = rows[3]["halo_total_s"]
    # Noise, not wire time, dominates communication at scale (paper §5.1).
    assert full > 3 * quiet
    # Each source alone already inflates the quiet baseline.
    assert rows[1]["halo_total_s"] > 1.5 * quiet

    benchmark(lambda: _halo_total(0.0, False))
