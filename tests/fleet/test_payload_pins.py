"""Byte pins on the four report payloads at fixed seeds.

The other suites compare execution plans against each other; these
compare each report against a recorded sha256, so a refactor that
changes what any report *says* fails here even when every plan still
agrees with every other.  Each digest covers the report minus its
``execution`` section (how it was produced, not what it found).

A deliberate change to a report's content must update its digest here
and say why.
"""

import hashlib
import json

import pytest

from repro.faults import CampaignConfig
from repro.faults import run_campaign as run_fault_campaign
from repro.fleet import (
    ExecutionPlan,
    FleetConfig,
    ServiceConfig,
    run_fleet,
    run_service,
)
from repro.ota import OtaConfig
from repro.ota import run_campaign as run_ota_campaign


def _payload_sha256(report: dict) -> str:
    payload = {k: v for k, v in report.items() if k != "execution"}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


FLEET_CONFIG = FleetConfig(
    devices=6, rounds=2, seed=11, compromise=2,
    drop_rate=0.2, delay_min=16, delay_max=256, step_cycles=3000,
)
# The fleet metrics count host bus calls (``fleet_bus_memo_hits``), so
# this digest moves when the host batches word accesses: exception
# frames and Trustlet Table rows written and read as single blocks took
# that counter from 2691 to 1955, and reading the table's count and
# rows as one block per lookup took it to 1825, with nothing else in
# the report moving.
FLEET_SHA256 = (
    "c6c1cb0277346e5b5bb5192f464958fb"
    "22b4aad829740b62174df19cedbcf8f7"
)
# The report's ``config`` section lists every ``ServiceConfig`` field;
# dropping ``trace_capacity`` (a knob the service never used: it never
# steps its clones) moved this digest from d77772fb..., with nothing
# else in the report moving.
SERVE_SHA256 = (
    "8fcd63d045b0ca8d126307a5f2e412b4"
    "892f12e516c23b82c28168b3117a569f"
)
OTA_SHA256 = (
    "e062bbd44b4f777f8b39687fee3646da"
    "f443c02d41652ddf83c38cd28b63735a"
)
# ``irq_storm`` schedules its arrivals in simulated cycles (a mean gap
# of 10), so its ``raised`` count is the same on every engine; moving
# it there from one draw per interrupt poll changed that count, and
# nothing else, in both faults payloads (48 -> 43 here, 356 -> 385 in
# the default campaign at seed 0).
FAULTS_SHA256 = (
    "f0ad6dd107dc1d34300e75345bd39921"
    "519ac6b228dc32b61a4c42cb1b43e000"
)
# The default campaign steps each stepped scenario's guest for 2000
# cycles, long enough for its code to get hot.
FAULTS_DEFAULT_SHA256 = (
    "1557fb3151dc31a057ddadb394582778"
    "6c5255e835b21da230597b8273f3ff12"
)


@pytest.mark.parametrize("workers", [1, 2])
def test_fleet_payload_pinned(workers):
    report = run_fleet(
        FLEET_CONFIG, ExecutionPlan(workers=workers, shard_size=4)
    )
    assert _payload_sha256(report) == FLEET_SHA256


def test_serve_payload_pinned():
    report = run_service(
        ServiceConfig(
            devices=6, seed=5, compromise=1, duration_cycles=20_000,
            rate_per_kcycle=3.0, drop_rate=0.1,
        )
    )
    assert _payload_sha256(report) == SERVE_SHA256


def test_ota_payload_pinned():
    report = run_ota_campaign(
        OtaConfig(devices=4, seed=3, delay_max=32), workers=1
    )
    assert _payload_sha256(report) == OTA_SHA256


def test_faults_payload_pinned():
    report = run_fault_campaign(
        CampaignConfig(seed=2, rounds=1, step_cycles=500, codec_trials=3)
    )
    assert _payload_sha256(report) == FAULTS_SHA256


def test_faults_default_payload_pinned():
    report = run_fault_campaign(CampaignConfig(seed=0))
    assert _payload_sha256(report) == FAULTS_DEFAULT_SHA256
