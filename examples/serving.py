"""ORAM-as-a-service: multi-tenant serving with deterministic batching.

Three demonstrations of the async serving layer:

1. Two tenants share one hierarchical ORAM instance through the service;
   reads and writes round-trip and every request is accounted to its tenant.
2. Determinism — replaying a recorded request script through the batching
   scheduler leaves the ORAM bit-identical to applying the same requests
   serially.
3. A closed-loop load generation run reporting p50/p99 latency and
   aggregate throughput.

Run with:  python examples/serving.py
"""

import asyncio

from repro import (
    LoadGenConfig,
    OramService,
    ORAMConfig,
    OramSpec,
    ServiceConfig,
    run_load,
    run_script,
    serial_script,
    synthetic_script,
)

# The functional storage stack keeps the demo fast; any registered stack
# (encrypted, integrity, memmap-flat) serves identically.
SPEC = OramSpec(protocol="flat", storage="flat")
CONFIG = ORAMConfig(working_set_blocks=256, z=4, block_bytes=64, stash_capacity=150)


async def demo_service() -> None:
    print("--- Two tenants sharing one served instance ---")
    service = OramService(ServiceConfig(max_batch=32))
    service.open_instance("shared", SPEC, CONFIG, seed=1)
    async with service:
        await service.submit("alice", "shared", 5, op="write", data=b"alice owns block 5")
        await service.submit("bob", "shared", 6, op="write", data=b"bob owns block 6")
        alice = await service.submit("alice", "shared", 5)
        bob = await service.submit("bob", "shared", 6)
    print(f"alice read back: {alice.data!r}  (latency {alice.latency * 1e3:.3f} ms)")
    print(f"bob   read back: {bob.data!r}  (latency {bob.latency * 1e3:.3f} ms)")
    for name, tenant in sorted(service.stats.tenants.items()):
        print(
            f"  tenant {name}: {tenant.requests} requests "
            f"({tenant.reads} reads, {tenant.writes} writes)"
        )
    print()


def demo_determinism() -> None:
    print("--- Determinism: batched replay == serial application ---")
    script = synthetic_script(
        seed=42,
        tenants=["alice", "bob", "carol"],
        instances=["shared"],
        length=300,
        working_set=256,
        write_fraction=0.25,
    )
    instances = {"shared": (SPEC, CONFIG, 7)}
    config = ServiceConfig(max_batch=64)
    batched = run_script(script, instances, config=config)
    serial = serial_script(script, instances, config=config)
    print(f"requests replayed: {len(script)}")
    print(f"batched rounds: {batched.stats.rounds}, batches: {batched.stats.batches}")
    print(f"ORAM state fingerprints identical: {batched.fingerprint == serial.fingerprint}")
    print(
        f"service accounting identical:      "
        f"{batched.stats.fingerprint() == serial.stats.fingerprint()}"
    )
    print()


def demo_loadgen() -> None:
    print("--- Closed-loop load generation ---")
    load = LoadGenConfig(
        tenants=3,
        clients_per_tenant=2,
        requests_per_client=50,
        working_set=256,
        seed=9,
    )
    report = run_load({"main": (SPEC, CONFIG, 3)}, load=load)
    print(
        f"{report.requests} requests in {report.duration:.3f} s "
        f"-> {report.throughput_rps:,.0f} req/s"
    )
    print(f"latency p50 {report.p50_ms:.3f} ms, p99 {report.p99_ms:.3f} ms")
    print(f"scheduler: {report.rounds} rounds, {report.batches} batches")


def main() -> None:
    asyncio.run(demo_service())
    demo_determinism()
    demo_loadgen()


if __name__ == "__main__":
    main()
