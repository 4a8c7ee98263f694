"""The four workloads of the fleet-stack benchmark.

Each workload turns ``--seed`` into the program's inputs during set-up
and then makes **one timed call** into a public entry point.  From the
returned report it reads the operation count behind ``ops_per_s``, the
attempted and failed operations, the deterministic payload whose
digest must not change between runs, and any correctness problem.

Sizes are chosen so that one fresh process spends about 2.5 seconds in
its timed call on a 2-core x86 host, which lets a 30-second measured
run take the median of about nine fresh processes: on a shared virtual
machine single processes scatter by +-25%.  Every workload uses at most
2 worker processes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

@dataclass
class Run:
    """A set-up workload: the timed call and where its side data lands."""

    call: Callable[[], dict]
    #: ``execute_run``'s per-stage wall-clock sink (fleet workloads).
    stages: dict = field(default_factory=dict)


def _digest(report: dict, drop: tuple[str, ...]) -> str:
    payload = {key: value for key, value in report.items() if key not in drop}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _flag_problems(report: dict) -> list[str]:
    problems = []
    if not report["ok"]:
        problems.append("report says ok=false")
    flagged = sorted(report["flagged"]["compromised"])
    if flagged != sorted(report["expected_compromised"]):
        problems.append(
            f"flagged compromised {flagged} != expected "
            f"{report['expected_compromised']}"
        )
    return problems


class FleetWorkload:
    """``execute_run(prepare_run(FleetConfig(...)), ExecutionPlan(...))``.

    A closed-loop batch job; one operation is one device-round.
    """

    op = "device-round"
    loop = "closed loop"

    def __init__(self, name, config, plan, quick_config, quick_plan):
        self.name = name
        self._scales = {False: (config, plan), True: (quick_config, quick_plan)}

    def setup(self, seed: int, quick: bool, inject: bool) -> Run:
        from repro.fleet import (
            ExecutionPlan,
            FleetConfig,
            execute_run,
            prepare_run,
        )

        config, plan = self._scales[quick]
        prepared = prepare_run(FleetConfig(**config, seed=seed))
        if inject:
            # The verifier now expects a wrong digest for the first
            # module, so every healthy device reads as compromised.
            (tag, _digest_bytes), *rest = prepared.expected_rows
            prepared = dataclasses.replace(
                prepared, expected_rows=((tag, bytes(16)), *rest)
            )
        plan = ExecutionPlan(**plan)
        stages: dict = {}
        return Run(
            call=lambda: execute_run(prepared, plan, stage_timings=stages),
            stages=stages,
        )

    def ops(self, report: dict) -> int:
        return report["config"]["devices"] * report["config"]["rounds"]

    def attempted(self, report: dict) -> int:
        return self.ops(report)

    def failed(self, report: dict) -> int:
        return sum(r["unresponsive"] for r in report["rounds"])

    def payload_digest(self, report: dict) -> str:
        # Engine/cache counters describe how the run went, not what it
        # found; bench_fleet_scale.py drops them the same way.
        return _digest(report, ("execution", "metrics"))

    def problems(self, report: dict) -> list[str]:
        return _flag_problems(report)

    def check_value(self, report: dict):
        return None

    def report_layers(self, report: dict, stages: dict) -> dict:
        counters = report["metrics"]["counters"]
        hits = counters.get("fleet_decode_cache_hits", 0)
        misses = counters.get("fleet_decode_cache_misses", 0)
        return {
            "decode_hits": hits,
            "decode_lookups": hits + misses,
            "trace_instructions": counters.get("fleet_trace_instructions", 0),
            "verifier.retries": counters.get("fleet_retries", 0),
            "parallel.shards": report["execution"]["shards"],
            "executor.recoveries": report["execution"]["recovery"].get(
                "recoveries", 0
            ),
            "pool.spinup_wall_s": stages.get("pool_spinup_s", 0.0),
            "shm.ship_wall_s": stages.get("ship_s", 0.0),
            "workers": report["execution"]["workers"],
        }

    def expected_spans(self, report: dict) -> dict[str, int]:
        execution = report["execution"]
        config = report["config"]
        counters = report["metrics"]["counters"]
        sent = report["transport"]["sent"]
        quotes = sent - counters["fleet_challenges_sent"]
        expected = {
            "parallel.run_shards": 1,
            "parallel.shard": execution["shards"],
            "parallel.merge": execution["shards"],
            "verifier.round": execution["shards"] * config["rounds"],
            "verifier.expected_quote": (
                counters.get("fleet_quotes_verified", 0)
                + counters.get("fleet_quotes_rejected", 0)
            ),
            "machine.clone": config["devices"],
            "machine.decode": -1,
            "core.quote": quotes,
            "core.measure": quotes * len(report["image"]["modules"]),
            "transport.send": sent,
            "crypto.digest": -(quotes * (len(report["image"]["modules"]) + 1)),
            "machine.guest": (
                config["devices"] * config["rounds"]
                if config["step_cycles"] else 0
            ),
        }
        if execution["workers"] > 1:
            expected["pool.spinup"] = 1
            expected["shm.ship"] = 1
        return expected


class ServeWorkload:
    """``asyncio.run(AttestationService(ServiceConfig(...)).run())``.

    An open loop in simulated time: seeded Poisson arrivals.  One
    operation is one checked quote.
    """

    op = "checked quote"
    loop = "open loop (simulated time)"

    def __init__(self, name, config, quick_config):
        self.name = name
        self._scales = {False: config, True: quick_config}

    def setup(self, seed: int, quick: bool, inject: bool) -> Run:
        from repro.fleet import AttestationService, ServiceConfig

        service = AttestationService(
            ServiceConfig(**self._scales[quick], seed=seed), workers=1
        )
        if inject:
            # Tamper a device the report does not expect to be
            # compromised: its quotes are rejected, a false positive.
            healthy = min(
                device_id
                for device_id, device in service.devices.items()
                if not device.tampered_modules
            )
            service.devices[healthy].tamper_code()
        return Run(call=lambda: asyncio.run(service.run()))

    def ops(self, report: dict) -> int:
        return report["service"]["checked"]

    def attempted(self, report: dict) -> int:
        return report["load"]["arrivals"]

    def failed(self, report: dict) -> int:
        return report["service"]["timeouts"] + report["service"]["shed"]

    def payload_digest(self, report: dict) -> str:
        return _digest(report, ("execution",))

    def problems(self, report: dict) -> list[str]:
        return _flag_problems(report)

    def check_value(self, report: dict):
        """Simulated latency p99 in cycles: a check, never a speed."""
        return report["latency"]["p99"]

    def report_layers(self, report: dict, stages: dict) -> dict:
        return {
            "server.batches": report["service"]["batches"],
            "executor.recoveries": report["execution"]["recovery"].get(
                "recoveries", 0
            ),
            "workers": report["execution"]["workers"],
        }

    def expected_spans(self, report: dict) -> dict[str, int]:
        config = report["config"]
        counters = report["metrics"]["counters"]
        sent = report["transport"]["sent"]
        quotes = sent - counters["serve_challenges_sent"]
        ticks = report["service"]["drained_at_cycle"] // config["tick_cycles"]
        return {
            "server.run": 1,
            "server.verify_batch": report["service"]["batches"],
            "core.quote": quotes,
            "core.measure": quotes * len(report["image"]["modules"]),
            "transport.send": sent,
            "transport.poll": 2 * ticks * config["devices"],
            "crypto.digest": -(quotes * (len(report["image"]["modules"]) + 1)),
        }


class OtaWorkload:
    """``run_campaign(OtaConfig(...), workers=1)``: staged waves.

    A closed loop; one operation is one device update.  The campaign's
    own golden boot and container signing run inside the timed call,
    so set-up is only the imports.
    """

    op = "device update"
    loop = "closed loop"

    def __init__(self, name, config, quick_config):
        self.name = name
        self._scales = {False: config, True: quick_config}

    def setup(self, seed: int, quick: bool, inject: bool) -> Run:
        from repro.ota.campaign import OtaConfig, run_campaign

        config = OtaConfig(
            **self._scales[quick], seed=seed,
            # The campaign's own forced failure: the canary's installed
            # code is tampered, the health gate fails, waves roll back.
            fail="canary" if inject else "none",
        )
        return Run(call=lambda: run_campaign(config, workers=1))

    def ops(self, report: dict) -> int:
        return sum(len(wave["devices"]) for wave in report["waves"])

    def attempted(self, report: dict) -> int:
        return report["config"]["devices"]

    def failed(self, report: dict) -> int:
        return report["config"]["devices"] - len(report["devices_on_target"])

    def payload_digest(self, report: dict) -> str:
        return _digest(report, ("execution",))

    def problems(self, report: dict) -> list[str]:
        return [] if report["ok"] else ["campaign report says ok=false"]

    def check_value(self, report: dict):
        return None

    def report_layers(self, report: dict, stages: dict) -> dict:
        transfer = [wave["transfer"] for wave in report["waves"]]
        return {
            "ota.chunks": sum(t.get("chunks", 0) for t in transfer),
            "ota.chunk_retries": sum(
                t.get("chunk_retries", 0) for t in transfer
            ),
            "executor.recoveries": report["execution"]["recovery"].get(
                "recoveries", 0
            ),
            "workers": report["execution"]["workers"],
        }

    def expected_spans(self, report: dict) -> dict[str, int]:
        devices = report["config"]["devices"]
        modules = len(report["container"]["measurements"])
        return {
            "ota.update": devices,
            # v1 arrives as bytes (decoded inside boot_signed), v2 as
            # bytes decoded by the campaign: two decodes, two boots.
            "ota.decode": 2 * devices,
            "ota.verify": 2 * devices,
            "core.boot_signed": 2 * devices,
            "machine.clone": devices,
            "machine.decode": 1,
            "verifier.round": devices,
            "core.quote": devices,
            "core.measure": devices * modules,
            "crypto.digest": -(devices * (modules + 1)),
            "transport.send": -devices,
        }


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    workload.name: workload
    for workload in (
        FleetWorkload(
            "fleet-attest",
            # Five retries (five attempts for OTA chunks) make a device
            # lost to the 2% drop rate a < 1e-5 event per run, so no
            # seed produces a failed operation.
            config=dict(
                devices=128, rounds=2, compromise=4, drop_rate=0.02,
                max_retries=5, delay_min=0, delay_max=512, step_cycles=0,
            ),
            plan=dict(workers=2, shard_size=64),
            quick_config=dict(
                devices=16, rounds=1, compromise=2, drop_rate=0.02,
                max_retries=5, delay_min=0, delay_max=512, step_cycles=0,
            ),
            quick_plan=dict(workers=2, shard_size=8),
        ),
        FleetWorkload(
            "fleet-guest",
            config=dict(
                devices=4, rounds=2, compromise=1, step_cycles=150_000,
            ),
            plan=dict(workers=1),
            quick_config=dict(
                devices=2, rounds=1, compromise=1, step_cycles=20_000,
            ),
            quick_plan=dict(workers=1),
        ),
        ServeWorkload(
            "serve-steady",
            # A constant link delay keeps two challenges to one device in
            # order, so none is refused as a replay and times out.
            config=dict(
                devices=4, compromise=1, duration_cycles=150_000,
                rate_per_kcycle=1.0, delay_min=128, delay_max=128,
            ),
            quick_config=dict(
                devices=4, compromise=1, duration_cycles=20_000,
                rate_per_kcycle=2.0, delay_min=128, delay_max=128,
            ),
        ),
        OtaWorkload(
            "ota-campaign",
            config=dict(devices=16, canary=2, drop_rate=0.02, max_attempts=5),
            quick_config=dict(
                devices=4, canary=1, drop_rate=0.02, max_attempts=5,
            ),
        ),
    )
}
