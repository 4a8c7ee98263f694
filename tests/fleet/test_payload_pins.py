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
# that counter from 2691 to 1955 with nothing else in the report moving.
FLEET_SHA256 = (
    "ba5020b039604db4f492bec85c66f2f5"
    "0ecc521e6b535b4f13ecbe7568d7ff8a"
)
SERVE_SHA256 = (
    "d77772fb40931fdf3e3b8c7c77cf7243"
    "cfe4db15a737369c21f6589b4b1f141a"
)
OTA_SHA256 = (
    "e062bbd44b4f777f8b39687fee3646da"
    "f443c02d41652ddf83c38cd28b63735a"
)
FAULTS_SHA256 = (
    "53cf265d46322a3afab3936c9aced26d"
    "370322a0053d60495fa7c39acb39dba8"
)
# The default campaign steps each stepped scenario's guest for 2000
# cycles, long enough for its code to get hot.  ``irq_storm`` draws
# once per interrupt poll, so this digest also pins the engine the
# campaign's clones run on (356 storm interrupts at seed 0).
FAULTS_DEFAULT_SHA256 = (
    "340fa8f5cc798896fbae37d79961c4cc"
    "98bfdef97ed100f9e99b4eca34863c88"
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
