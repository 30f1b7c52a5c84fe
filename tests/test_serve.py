"""The ORAM-as-a-service layer: determinism, QoS and lifecycle.

The correctness anchor is **scheduler determinism**: a recorded request
script replayed through the async batching service must leave the ORAM
bit-identical — full state fingerprint including the RNG stream — to the
same requests applied serially.  Around that pin: fair-share quota
semantics (throttle accounting, starvation freedom), per-request results
(write→read round-trips through fused batches), typed error propagation
that doesn't poison neighbouring requests, and the service lifecycle.

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
from repro.serve import (
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
        # With unbounded quotas the admission order is exactly the arrival
        # order, so the service is bit-identical to a bare access() loop
        # over the same ORAM — batching must be invisible to the state.
        script = _script()
        outcome = run_script(script, {"main": (FLAT, _config(), 7)})
        oram = open_oram(FLAT, _config(), seed=7)
        for request in script:
            oram.access(request.address, op=request.op, data=request.data)
        assert dict(outcome.fingerprint[0])["main"] == oram_fingerprint(oram)

    def test_fusing_does_not_change_state(self):
        script = _script(write_fraction=0.0)
        instances = {"main": (FLAT, _config(), 3)}
        fused = run_script(script, instances, config=ServiceConfig(fuse_reads=True))
        unfused = run_script(script, instances, config=ServiceConfig(fuse_reads=False))
        assert fused.fingerprint == unfused.fingerprint
        assert fused.stats.fingerprint() == unfused.stats.fingerprint()
        assert fused.stats.fused_runs > 0
        assert unfused.stats.fused_runs == 0

    def test_repeat_runs_are_bit_identical(self):
        script = _script(length=200)
        instances = {"main": (FLAT, _config(), 5)}
        first = run_script(script, instances)
        second = run_script(script, instances)
        assert first.fingerprint == second.fingerprint
        assert first.stats.fingerprint() == second.stats.fingerprint()

    def test_quota_replay_matches_serial(self):
        # Fair-share throttling reorders admissions; the serial reference
        # drives the *same* scheduler, so the pin holds under QoS too.
        script = _script(length=300, seed=9)
        instances = {"main": (FLAT, _config(), 11)}
        quotas = {"alice": 2, "bob": 4}
        config = ServiceConfig(max_batch=32)
        batched = run_script(script, instances, config=config, quotas=quotas)
        serial = serial_script(script, instances, config=config, quotas=quotas)
        assert batched.fingerprint == serial.fingerprint
        assert batched.stats.fingerprint() == serial.stats.fingerprint()

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
                return await service.submit("t", "main", 9, collect=True)

        result = asyncio.run(run())
        assert result.found is True
        assert result.data == b"payload-9"
        assert result.latency > 0.0

    def test_fused_reads_resolve_without_payload(self):
        async def run():
            service = OramService(ServiceConfig(fuse_reads=True))
            service.open_instance("main", FLAT, _config(), seed=1)
            async with service:
                futures = [
                    asyncio.ensure_future(service.submit("t", "main", address))
                    for address in range(1, 9)
                ]
                return await asyncio.gather(*futures)

        results = asyncio.run(run())
        assert len(results) == 8
        assert all(r.found is None and r.data is None for r in results)
        assert all(r.latency > 0.0 for r in results)

    def test_request_error_does_not_poison_batch(self):
        async def run():
            service = OramService()
            service.open_instance("main", FLAT, _config(), seed=1)
            async with service:
                bad = asyncio.ensure_future(service.submit("t", "main", 10_000, collect=True))
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
    def test_quota_throttles_heavy_tenant(self):
        # One tenant floods, one trickles; the flood gets capped per round
        # and the accounting records every deferral.
        script = []
        for i in range(120):
            script.append(Request(tenant="heavy", instance="main", address=1 + i % 64))
        for i in range(12):
            script.append(Request(tenant="light", instance="main", address=1 + i))
        quotas = {"heavy": 4}
        outcome = run_script(
            script,
            {"main": (FLAT, _config(), 6)},
            config=ServiceConfig(max_batch=64),
            quotas=quotas,
        )
        heavy = outcome.stats.tenants["heavy"]
        light = outcome.stats.tenants["light"]
        assert heavy.requests == 120
        assert light.requests == 12
        assert heavy.throttled > 0
        assert light.throttled == 0
        # Quota of 4/round over 120 requests needs >= 30 scheduler rounds.
        assert outcome.stats.rounds >= 30

    def test_unbounded_quota_never_throttles(self):
        outcome = run_script(_script(), {"main": (FLAT, _config(), 6)})
        assert all(t.throttled == 0 for t in outcome.stats.tenants.values())

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
        for name, t in tenants.items():
            assert t.reads + t.writes == t.requests
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
                return await service.submit("t", "main", 7, collect=True)

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

    def test_negative_quota(self):
        with pytest.raises(ConfigurationError, match="quota"):
            ServiceConfig(default_quota=-1)
