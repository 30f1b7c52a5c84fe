"""The ORAM-as-a-service layer: determinism, accounting and lifecycle.

The correctness anchor is **scheduler determinism**: a recorded request
script replayed through the async batching service must leave the ORAM
bit-identical — full state fingerprint including the RNG stream — to the
same requests applied serially.  Around that pin: arrival-order admission,
per-tenant accounting, per-request results (every read in a batch returns
what a bare ``access`` returns), typed error propagation that doesn't
poison neighbouring requests, and the service lifecycle.

No pytest-asyncio in the image: async paths run through ``asyncio.run``
inside plain sync tests, or through the synchronous ``run_script`` /
``serial_script`` / ``run_load`` wrappers.
"""

import asyncio

import pytest

from repro import (
    ConfigurationError,
    HierarchyConfig,
    ORAMConfig,
    OramSpec,
    OramService,
    ServiceConfig,
    open_oram,
)
from repro.core.types import Operation
from repro.serve import (
    BatchScheduler,
    PendingRequest,
    Request,
    oram_fingerprint,
    run_load,
    run_script,
    serial_script,
    synthetic_script,
)
from repro.serve.loadgen import LoadGenConfig, percentile

FLAT = OramSpec(protocol="flat")


def _config(**overrides) -> ORAMConfig:
    defaults = dict(working_set_blocks=256, z=4, block_bytes=64, stash_capacity=150)
    defaults.update(overrides)
    return ORAMConfig(**defaults)


def _hierarchy() -> HierarchyConfig:
    return HierarchyConfig(
        data_oram=_config(),
        position_map_block_bytes=16,
        position_map_z=4,
        onchip_position_map_limit_bytes=64,
    )


def _script(length=400, seed=1, **kwargs):
    params = dict(
        tenants=["alice", "bob", "carol"],
        instances=["main"],
        working_set=256,
        write_fraction=0.2,
    )
    params.update(kwargs)
    return synthetic_script(seed=seed, length=length, **params)


class TestBatchScheduler:
    def test_admits_each_instance_in_arrival_order(self):
        # Three tenants interleaved over two instances: a round takes the
        # next max_batch requests of one instance, whatever their tenant.
        scheduler = BatchScheduler(max_batch=3)
        tenants = ["alice", "bob", "carol"]
        queued = {"east": [], "west": []}
        for seq in range(11):
            instance = ("west", "east")[seq % 2]
            pending = PendingRequest(Request(tenants[seq % 3], instance, 1 + seq), seq)
            scheduler.enqueue(pending)
            queued[instance].append(pending)
        remaining = 11
        assert scheduler.pending == remaining
        assert scheduler.pending_instances() == ["east", "west"]
        while scheduler.pending:
            for name in scheduler.pending_instances():
                batch = scheduler.admit(name)
                assert 1 <= len(batch) <= 3
                assert batch == queued[name][:3]
                del queued[name][:3]
                remaining -= len(batch)
                assert scheduler.pending == remaining
        assert queued == {"east": [], "west": []}
        assert scheduler.pending_instances() == []
        assert scheduler.admit("east") == []


class TestDeterminism:
    def test_async_replay_matches_serial(self):
        script = _script()
        instances = {"main": (FLAT, _config(), 7)}
        config = ServiceConfig(max_batch=64)
        batched = run_script(script, instances, config=config)
        serial = serial_script(script, instances, config=config)
        assert batched.fingerprint == serial.fingerprint
        assert batched.stats.fingerprint() == serial.stats.fingerprint()

    def test_async_replay_matches_plain_access_loop(self):
        # The admission order is exactly the arrival order, so the service
        # is bit-identical to a bare access() loop over the same ORAM —
        # batching must be invisible to the state.
        script = _script()
        outcome = run_script(script, {"main": (FLAT, _config(), 7)})
        oram = open_oram(FLAT, _config(), seed=7)
        for request in script:
            oram.access(request.address, op=request.op, data=request.data)
        assert dict(outcome.fingerprint[0])["main"] == oram_fingerprint(oram)

    def test_repeat_runs_are_bit_identical(self):
        script = _script(length=200)
        instances = {"main": (FLAT, _config(), 5)}
        first = run_script(script, instances)
        second = run_script(script, instances)
        assert first.fingerprint == second.fingerprint
        assert first.stats.fingerprint() == second.stats.fingerprint()

    def test_max_batch_one_degenerates_to_serial(self):
        script = _script(length=120)
        instances = {"main": (FLAT, _config(), 2)}
        config = ServiceConfig(max_batch=1)
        one = run_script(script, instances, config=config)
        serial = serial_script(script, instances, config=config)
        assert one.fingerprint == serial.fingerprint
        # And the ORAM state (schedule-independent) matches the default
        # batched run too — batch size is invisible to the engine.
        batched = run_script(script, instances)
        assert batched.fingerprint[0] == one.fingerprint[0]

    def test_multi_instance_hierarchical_with_plb(self):
        # The serving layer composes with the recursive protocol and the
        # PLB: two instances, interleaved tenants, state pinned per name.
        spec = OramSpec(protocol="hierarchical", plb_entries_per_level=4)
        script = _script(length=300, instances=["left", "right"], seed=13)
        instances = {
            "left": (spec, _hierarchy(), 3),
            "right": (spec, _hierarchy(), 4),
        }
        config = ServiceConfig(max_batch=16)
        batched = run_script(script, instances, config=config)
        serial = serial_script(script, instances, config=config)
        assert {name for name, _ in batched.fingerprint[0]} == {"left", "right"}
        assert batched.fingerprint == serial.fingerprint

    def test_synthetic_script_is_deterministic(self):
        assert _script(seed=21) == _script(seed=21)
        assert _script(seed=21) != _script(seed=22)


class TestResultsAndErrors:
    def test_write_then_collect_read_roundtrip(self):
        async def run():
            service = OramService()
            service.open_instance("main", FLAT, _config(), seed=1)
            async with service:
                await service.submit("t", "main", 9, op="write", data=b"payload-9")
                return await service.submit("t", "main", 9)

        result = asyncio.run(run())
        assert result.found is True
        assert result.data == b"payload-9"
        assert result.latency > 0.0

    @pytest.mark.parametrize(
        "spec, config",
        [
            (FLAT, _config()),
            (OramSpec(protocol="hierarchical", plb_entries_per_level=8), _hierarchy()),
            (OramSpec(storage="integrity"), _config()),
        ],
        ids=["flat", "hierarchical-plb8", "integrity"],
    )
    def test_batched_reads_return_what_an_access_loop_returns(self, spec, config):
        written = {address: f"block-{address}".encode() for address in range(1, 40, 3)}
        reads = list(range(1, 41)) + [4, 4, 7]
        served = open_oram(spec, config, seed=5)
        reference = open_oram(spec, config, seed=5)
        for oram in (served, reference):
            for address, payload in written.items():
                oram.access(address, "write", payload)
        service = OramService()
        service.attach_instance("main", served)

        async def run():
            async with service:
                futures = [
                    service.submit_nowait(Request("t", "main", address)) for address in reads
                ]
                return await asyncio.gather(*futures)

        results = asyncio.run(run())
        assert service.stats.batches == 1
        expected = [reference.access(address) for address in reads]
        assert [(r.found, r.data) for r in results] == [(e.found, e.data) for e in expected]
        assert sum(r.found for r in results) == sum(address in written for address in reads)
        assert service.stats.tenants["t"].found == sum(r.found for r in results)
        assert oram_fingerprint(served) == oram_fingerprint(reference)

    @pytest.mark.parametrize("storage", ["integrity", "encrypted"])
    def test_scripts_with_writes_serve_the_encoding_stacks(self, storage):
        script = synthetic_script(1, ["a"], ["main"], 64, 50, write_fraction=0.3)
        assert any(request.op is Operation.WRITE for request in script)
        config = ORAMConfig(working_set_blocks=64)
        flat = serial_script(script, {"main": (FLAT, config, 1)})
        encoded = serial_script(script, {"main": (OramSpec(storage=storage), config, 1)})
        assert not [r for r in encoded.results if isinstance(r, Exception)]
        assert encoded.results == flat.results

    def test_request_error_does_not_poison_batch(self):
        async def run():
            service = OramService()
            service.open_instance("main", FLAT, _config(), seed=1)
            async with service:
                bad = asyncio.ensure_future(service.submit("t", "main", 10_000))
                good = asyncio.ensure_future(service.submit("t", "main", 3))
                await asyncio.gather(bad, good, return_exceptions=True)
                return bad.exception(), good.result()

        error, good_result = asyncio.run(run())
        assert isinstance(error, ConfigurationError)
        assert good_result.address == 3

    def test_unknown_instance_rejected_at_submit(self):
        async def run():
            service = OramService()
            service.open_instance("main", FLAT, _config(), seed=1)
            async with service:
                with pytest.raises(ConfigurationError, match="unknown instance"):
                    await service.submit("t", "nope", 1)

        asyncio.run(run())

    def test_submit_requires_started_service(self):
        service = OramService()
        service.open_instance("main", FLAT, _config(), seed=1)
        with pytest.raises(ConfigurationError, match="not started"):
            service.submit_nowait(Request(tenant="t", instance="main", address=1))

    def test_duplicate_instance_name_rejected(self):
        service = OramService()
        service.open_instance("main", FLAT, _config(), seed=1)
        with pytest.raises(ConfigurationError, match="already"):
            service.open_instance("main", FLAT, _config(), seed=2)


class TestQoS:
    def test_per_tenant_accounting_totals(self):
        script = _script(length=250, seed=17)
        outcome = run_script(script, {"main": (FLAT, _config(), 1)})
        tenants = outcome.stats.tenants
        assert sum(t.requests for t in tenants.values()) == len(script)
        by_hand = {}
        for request in script:
            by_hand[request.tenant] = by_hand.get(request.tenant, 0) + 1
        assert {name: t.requests for name, t in tenants.items()} == by_hand
        latencies = {}
        for request, result in zip(script, outcome.results):
            latencies.setdefault(request.tenant, []).append(result.latency)
        found = {}
        for request, result in zip(script, outcome.results):
            found[request.tenant] = found.get(request.tenant, 0) + result.found
        for name, t in tenants.items():
            assert t.reads + t.writes == t.requests
            assert t.found == found[name]
            assert len(latencies[name]) == t.requests
            assert sum(latencies[name]) > 0.0


class TestLifecycle:
    def test_context_manager_starts_and_closes(self):
        async def run():
            service = OramService()
            service.open_instance("main", FLAT, _config(), seed=1)
            async with service:
                await service.submit("t", "main", 1)
            return service

        service = asyncio.run(run())
        with pytest.raises(ConfigurationError, match="not started"):
            service.submit_nowait(Request(tenant="t", instance="main", address=1))

    def test_drain_waits_for_outstanding(self):
        async def run():
            service = OramService()
            service.open_instance("main", FLAT, _config(), seed=1)
            await service.start()
            futures = [
                service.submit_nowait(Request(tenant="t", instance="main", address=a))
                for a in range(1, 20)
            ]
            await service.drain()
            done = all(f.done() for f in futures)
            await service.aclose()
            return done

        assert asyncio.run(run())

    def test_attach_existing_oram(self):
        oram = open_oram(FLAT, _config(), seed=2)
        oram.write(7, b"pre-existing")
        service = OramService()
        service.attach_instance("main", oram)

        async def run():
            async with service:
                return await service.submit("t", "main", 7)

        assert asyncio.run(run()).data == b"pre-existing"


class TestLoadGen:
    def test_report_shape_and_consistency(self):
        load = LoadGenConfig(
            tenants=2,
            clients_per_tenant=2,
            requests_per_client=25,
            working_set=256,
            seed=3,
        )
        report = run_load({"main": (FLAT, _config(), 4)}, load=load)
        assert report.requests == load.total_requests == 100
        assert report.duration > 0.0
        assert report.throughput_rps > 0.0
        assert 0.0 < report.p50_ms <= report.p99_ms <= report.max_ms
        assert set(report.per_tenant) == {"tenant-00", "tenant-01"}
        assert sum(t["requests"] for t in report.per_tenant.values()) == 100
        record = report.as_record()
        assert record["requests"] == 100
        assert record["p99_ms"] >= record["p50_ms"]

    def test_unknown_load_instance_rejected(self):
        load = LoadGenConfig(instance="elsewhere")
        with pytest.raises(ConfigurationError, match="elsewhere"):
            run_load({"main": (FLAT, _config(), 4)}, load=load)

    def test_percentile_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile([7.0], 0.99) == 7.0


class TestServiceConfigValidation:
    def test_max_batch_floor(self):
        with pytest.raises(ConfigurationError, match="max_batch"):
            ServiceConfig(max_batch=0)
