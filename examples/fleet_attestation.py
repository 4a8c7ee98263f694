"""Fleet attestation: clone 32 devices, catch the one that was tampered.

The paper targets *large numbers of tiny embedded systems*; this
example scales the simulator out to a fleet:

1. boot ONE golden platform from the attestation image and snapshot it
   (CPU, memories, MPU region file, Trustlet Table — the lot);
2. stamp out 32 devices by cloning the snapshot — no memory copy
   (clones share the snapshot's bytes until they first change them),
   instead of 32 full Secure Loader boots with their word-by-word
   wipes and sponge measurements;
3. tamper one clone's code post-boot through the PROM programming
   path (the Trustlet Table still shows the pristine load-time hash —
   exactly the attack load-time measurement alone cannot catch);
4. run a challenge-response round: every device re-measures its code
   LIVE and MACs it under its per-device key; the verifier recomputes
   each expected quote from the golden image.

The verifier must flag the tampered device — and only it.

Run:  python examples/fleet_attestation.py
"""

import time

from repro.core.attestation import expected_measurements
from repro.core.platform import TrustLitePlatform
from repro.core.trustlet_table import name_tag
from repro.fleet import (
    COMPROMISED,
    FleetDevice,
    FleetVerifier,
    InProcessTransport,
    MetricsRegistry,
    device_key,
)
from repro.machine import Snapshot
from repro.sw.images import build_attestation_image

FLEET_SIZE = 32
SEED = 2014
TAMPERED_ID = 17


def main() -> None:
    print("=== Fleet attestation over snapshot-cloned devices ===\n")

    started = time.perf_counter()
    golden = TrustLitePlatform()
    image = build_attestation_image()
    golden.boot(image)
    boot_seconds = time.perf_counter() - started
    snapshot = Snapshot.save(golden)
    print(f"golden boot: {boot_seconds * 1e3:.1f} ms "
          f"({', '.join(image.module_order)})")

    started = time.perf_counter()
    devices = {}
    for device_id in range(FLEET_SIZE):
        platform = snapshot.clone()
        key = device_key(SEED, device_id)
        platform.soc.crypto.set_key(key)
        devices[device_id] = FleetDevice(device_id, platform, key)
    clone_seconds = time.perf_counter() - started
    print(f"cloned {FLEET_SIZE} devices in {clone_seconds * 1e3:.1f} ms "
          f"({clone_seconds / FLEET_SIZE * 1e3:.2f} ms each, "
          f"{snapshot.memory_bytes // 1024} KiB of state per device)")

    module = devices[TAMPERED_ID].tamper_code()
    print(f"\ntampered device {TAMPERED_ID}: one code byte of "
          f"{module!r} flipped post-boot")
    row = devices[TAMPERED_ID].platform.table.find_by_name(module)
    print("  Trustlet Table still shows the load-time measurement "
          f"({row.measurement.hex()[:16]}…) — load-time attestation "
          "alone would miss this")

    digests = expected_measurements(image)
    verifier = FleetVerifier(
        devices,
        InProcessTransport(seed=SEED),
        {i: device_key(SEED, i) for i in devices},
        [(name_tag(name), digests[name]) for name in image.module_order],
        seed=SEED,
        metrics=MetricsRegistry(),
    )

    print(f"\nchallenging all {FLEET_SIZE} devices "
          "(live re-measurement, MAC per device)...")
    verdicts = verifier.run_round()
    flagged = sorted(
        i for i, v in verdicts.items() if v.status == COMPROMISED
    )
    healthy = sum(1 for v in verdicts.values() if v.status == "healthy")
    print(f"  healthy     : {healthy}")
    print(f"  compromised : {flagged}")
    latency = verifier.metrics.histogram("fleet_round_latency_cycles")
    print(f"  round latency (cycles): p50={latency.percentile(50)} "
          f"p95={latency.percentile(95)}")

    assert flagged == [TAMPERED_ID], (
        f"expected exactly device {TAMPERED_ID}, got {flagged}"
    )
    print(f"\nThe verifier flagged exactly device {TAMPERED_ID}. "
          "Live re-measurement catches what the load-time table cannot.")


if __name__ == "__main__":
    main()
