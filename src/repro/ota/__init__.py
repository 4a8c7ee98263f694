"""Signed firmware containers and staged OTA update campaigns.

TrustLite's Secure Loader decides *what code runs*; this package adds
the missing lifecycle story — how that code ever changes in the field:

* :mod:`repro.ota.container` — the TLFW signed firmware container:
  typed sections with load addresses, a monotonic ``fw_version``, the
  per-module code measurements remote attestation already uses, and a
  MAC signature block over the canonical encoding, with a strict codec
  raising typed :class:`~repro.errors.ContainerError` on any damage;
* :mod:`repro.ota.campaign` — staged canary → cohort → fleet rollout
  over the lossy fleet transport in digest-checked chunks, health-gated
  promotion via re-attestation against the container's measurements,
  and deterministic auto-rollback of every updated device when a wave
  fails its gate — reported as byte-identical ``repro.ota/1`` JSON.
"""

from repro.ota.campaign import (
    OtaConfig,
    SCHEMA,
    format_ota_report,
    run_campaign,
)
from repro.ota.container import (
    FirmwareContainer,
    Measurement,
    Section,
    Vector,
    build_container,
    build_demo_container,
    container_problems,
    decode_container,
    demo_trust_root,
    encode_container,
    key_fingerprint,
    sign_container,
    signing_material,
    verify_container,
)

__all__ = [
    "FirmwareContainer",
    "Measurement",
    "OtaConfig",
    "SCHEMA",
    "Section",
    "Vector",
    "build_container",
    "build_demo_container",
    "container_problems",
    "decode_container",
    "demo_trust_root",
    "encode_container",
    "format_ota_report",
    "key_fingerprint",
    "run_campaign",
    "sign_container",
    "signing_material",
    "verify_container",
]
