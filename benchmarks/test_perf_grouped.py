"""Grouped-flat benchmark: super blocks on the default ``flat`` stack.

Super-block ORAMs run the generic path op (``PathORAM._access_path``) on
every stack, ``flat`` included, and no end-to-end benchmark workload uses
super blocks, so this section is their ledger entry.  A 4,096-block ``flat``
ORAM (default Z=4, 50% utilization, stash 200) runs uniform random reads
through ``access_many`` with static groups of 4 and with dynamic merging
(the ``OramSpec`` defaults), each paired against its ``plain`` twin (the
reference stack) over the same address stream in alternating windows.  The
static configuration spends about one dummy per four accesses in eviction
storms, so it also times the generic write-back under storms.

The recorded ``speedup`` and ``paired_ratios`` are the static groups' ``flat
rate / plain rate`` per window pair; the dynamic run's go under
``dynamic``.  Both twins must end every run in the same state.  The
``grouped_flat`` section of ``BENCH_engine.json`` has no committed floor, so
``check_perf_floors.py`` lists it as ``info:``.
"""

from conftest import measure_window_many, paired_throughput, record_perf, scaled

from repro.backends import OramSpec, build_oram
from repro.core.config import ORAMConfig

WINDOWS = 5
WORKING_SET = 4096

VARIANTS = {
    "static": (OramSpec(), ORAMConfig(working_set_blocks=WORKING_SET, super_block_size=4)),
    "dynamic": (OramSpec(dynamic_super_blocks=True), ORAMConfig(working_set_blocks=WORKING_SET)),
}


def run_variant(spec: OramSpec, config: ORAMConfig, measured: int) -> dict:
    """Paired flat/plain ``access_many`` windows for one grouping policy."""
    flat = build_oram(spec.with_updates(storage="flat"), config, seed=3)
    plain = build_oram(spec.with_updates(storage="plain"), config, seed=3)
    (flat_rate, plain_rate), spread = paired_throughput(
        flat,
        plain,
        WINDOWS,
        measured,
        WORKING_SET,
        engine_window=measure_window_many,
        reference_window=measure_window_many,
    )
    assert flat.stats.fingerprint() == plain.stats.fingerprint()
    assert flat.stash_addresses() == plain.stash_addresses()
    assert flat.position_map.leaves == plain.position_map.leaves
    return {
        "flat_accesses_per_sec": round(flat_rate, 1),
        "plain_accesses_per_sec": round(plain_rate, 1),
        "dummy_accesses": flat.stats.dummy_accesses,
        "paired_ratios": spread,
    }


def test_grouped_flat_vs_plain(benchmark):
    measured = scaled(5000, minimum=500)

    def _run():
        return {
            name: run_variant(spec, config, measured) for name, (spec, config) in VARIANTS.items()
        }

    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    record = {
        "config": (
            f"flat vs plain, {WORKING_SET}-block working set, Z=4, utilization 0.5, stash "
            "200: static super blocks of 4, and dynamic merging with the OramSpec defaults"
        ),
        "workload": "uniform random reads through access_many, same stream on both twins",
        "window_pairs": WINDOWS,
        "accesses_per_window": measured,
        "static": results["static"],
        "dynamic": results["dynamic"],
        "speedup": results["static"]["paired_ratios"]["median"],
        "paired_ratios": results["static"]["paired_ratios"],
    }
    record_perf(
        "grouped_flat",
        record,
        "Grouped flat — super-block access_many on flat vs plain (generic op on both)",
    )
