"""Coherence of code measurement under every path that mutates a device.

A fleet device re-measures its code live off the bus on every quote.
Each case below warms the measurement of every Trustlet Table row,
drives one mutation path, then re-measures.  Every re-measurement must
equal a reference digest of the same live bytes, fed to the sponge in
8-byte ``update`` calls, which stay below ``MEMO_MIN_BYTES``, are
absorbed at once and never touch the digest memo.  The memo is keyed on
(state, unabsorbed bytes): a region whose bytes are unchanged must hit,
a path that changes a region's bytes must record a miss (at the
re-measurement, or earlier at the boot that wrote them), and a second
measurement, served by the memo, must still equal the reference.

The same mutation paths then run past the verifier: each mutated
device answers a challenge first, and both verifier paths must reach
the verdict a memo-free recomputation reaches.

The aliasing, bound and property tests below hold the memo, the MAC
prefix cache and nonce sources to the same reference and to the
known-answer vectors.
"""

import contextlib
import functools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attestation import measure_code
from repro.core.layout import TRUSTLET_TABLE_BASE
from repro.core.trustlet_table import HEADER_SIZE, OFF_CODE_END
from repro.crypto import constant_time_equal, mac, sponge
from repro.crypto.sponge import (
    RATE,
    SpongeHash,
    memo_stats,
    prefixed,
    sponge_hash,
)
from repro.crypto.tokens import NONCE_SIZE, NonceSource
from repro.errors import ReproError
from repro.faults import (
    corrupt_blob,
    flip_memory_bits,
    glitch_mpu_permissions,
    inject_irq_drops,
    inject_irq_storm,
)
from repro.fleet.device import FleetDevice, quote_material
from repro.fleet.parallel import (
    QuoteCheckBatch,
    golden_boot,
    hydrate_devices,
    verify_quote_batch,
)
from repro.fleet.service import device_key
from repro.fleet.transport import InProcessTransport
from repro.fleet.verifier import COMPROMISED, HEALTHY, FleetVerifier
from repro.machine.snapcodec import decode_snapshot
from repro.machine.soc import SRAM_BASE
from repro.ota.campaign import _tamper_installed, sign_containers

from .test_sponge import CYCLE, SPONGE_KAT

KEY = device_key(0, 0)
STEP_CYCLES = 20_000


def reference_digest(data: bytes) -> bytes:
    """Sponge digest of ``data`` absorbed one block per ``update``."""
    hasher = SpongeHash()
    for start in range(0, len(data), RATE):
        hasher.update(data[start:start + RATE])
    return hasher.digest()


@contextlib.contextmanager
def isolated_memo(max_bytes=sponge.MEMO_MAX_BYTES,
                  max_prefixes=sponge.PREFIX_MAX_ENTRIES):
    """An empty memo and prefix cache (optionally with smaller bounds)
    for the block, so counts and clears do not depend on what ran
    before."""
    with mock.patch.multiple(
        sponge,
        _digests={},
        _prefixes={},
        _memo_counts=dict.fromkeys(sponge._memo_counts, 0),
        MEMO_MAX_BYTES=max_bytes,
        PREFIX_MAX_ENTRIES=max_prefixes,
    ):
        yield


def regions(platform) -> list[tuple[int, int]]:
    """The code regions a quote measures: the live Trustlet Table's."""
    return [(row.code_base, row.code_end) for row in platform.table.rows()]


def live(platform, region) -> bytes:
    base, end = region
    return platform.bus.read_bytes(base, end - base)


@pytest.fixture(scope="module")
def golden():
    return golden_boot()


def fresh_device(golden):
    return hydrate_devices(golden.blob, {0: KEY})[0]


def step(platform, cycles=STEP_CYCLES):
    """Run the guest so an injected fault acts; typed errors are the
    fault surfacing, which is not what this test is about."""
    try:
        platform.run(max_cycles=cycles)
    except ReproError:
        pass


# Each mutation takes a hydrated golden device and returns the
# platform to re-measure (usually the same one).


def prom_flip(device, golden):
    platform = device.platform
    base, end = regions(platform)[-1]
    flip_memory_bits(
        platform, random.Random(1), memory="prom", lo=base + 16, hi=end
    )
    return platform


def sram_table_flip(device, golden):
    """Flip a low bit of the OS row's code-end word: the device now
    measures a different region, still long enough for the memo."""
    platform = device.platform
    offset = (
        TRUSTLET_TABLE_BASE - SRAM_BASE + HEADER_SIZE + OFF_CODE_END
    )
    flip_memory_bits(platform, random.Random(4), memory="sram",
                     lo=offset, hi=offset + 1)
    return platform


def mpu_glitch(device, golden):
    glitch_mpu_permissions(device.platform, random.Random(3))
    step(device.platform)
    return device.platform


def irq_storm(device, golden):
    inject_irq_storm(device.platform, random.Random(4), mean_gap=10)
    step(device.platform)
    return device.platform


def irq_drops(device, golden):
    inject_irq_drops(device.platform, random.Random(5), rate=0.5)
    step(device.platform)
    return device.platform


def corrupt_blob_decodes(device, golden):
    """The first seeded bit-flipped golden blob that still decodes,
    clones and measures."""
    for seed in range(200):
        bad = corrupt_blob(golden.blob, random.Random(seed), flips=1)
        try:
            platform = decode_snapshot(bad).clone()
            for region in regions(platform):
                measure_code(platform.bus, *region)
        except ReproError:
            continue
        return platform
    raise AssertionError("no corrupted blob decoded")


def tamper_code(device, golden):
    device.tamper_code()
    return device.platform


@functools.cache
def signed():
    """The OTA campaign's ``(v1, v2, trust_root)`` at seed 0."""
    return sign_containers(0)


def ota_tamper_installed(device, golden):
    _tamper_installed(device.platform)
    return device.platform


def boot_signed_prom_write(device, golden):
    _v1, v2, root = signed()
    device.platform.boot_signed(v2, trust_root=root)
    return device.platform


#: ``(mutation, changes measured bytes, boots the v1 container
#: first)``; ``None``: either, depending on where the flip lands.
CASES = {
    "flip_memory_bits:prom": (prom_flip, True, False),
    "flip_memory_bits:sram": (sram_table_flip, True, False),
    "glitch_mpu_permissions": (mpu_glitch, False, False),
    "inject_irq_storm": (irq_storm, False, False),
    "inject_irq_drops": (irq_drops, False, False),
    "corrupt_blob": (corrupt_blob_decodes, None, False),
    "tamper_code": (tamper_code, True, False),
    "ota_tamper_installed": (ota_tamper_installed, True, True),
    "boot_signed_prom_write": (boot_signed_prom_write, True, True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_remeasurement_matches_reference(case, golden):
    mutate, changes, ota = CASES[case]
    device = fresh_device(golden)
    if ota:
        v1, _v2, root = signed()
        device.platform.boot_signed(v1, trust_root=root)
    with isolated_memo():
        warm = set()
        for region in regions(device.platform):
            data = live(device.platform, region)
            assert measure_code(device.platform.bus, *region) == \
                reference_digest(data)
            warm.add(data)
        warmed = memo_stats()

        platform = mutate(device, golden)

        changed = 0
        for region in regions(platform):
            data = live(platform, region)
            before = memo_stats()
            digest = measure_code(platform.bus, *region)
            assert digest == reference_digest(data), region
            if data in warm:
                assert memo_stats(since=before)["hits"] == 1, region
            else:
                changed += 1
            # What it serves or stores is the reference digest.
            before = memo_stats()
            assert measure_code(platform.bus, *region) == \
                reference_digest(data), region
            assert memo_stats(since=before)["hits"] == 1, region
        if changes is not None:
            assert bool(changed) == changes
        if changed:
            # The new bytes were absorbed at least once: by the
            # re-measurement, or earlier by the boot that wrote them.
            assert memo_stats(since=warmed)["misses"] >= 1


def test_quote_matches_reference(golden):
    """A whole quote over tampered code equals a memo-free MAC of the
    reference digests."""
    device = fresh_device(golden)
    device.compute_quote(bytes(8), 1)
    device.tamper_code()
    rows = [
        (row.name_tag, reference_digest(live(device.platform, region)))
        for row, region in zip(device.platform.table.rows(),
                               regions(device.platform))
    ]
    material = quote_material(bytes(8), 2, 0, rows)
    expected = reference_digest(
        len(KEY).to_bytes(4, "little") + KEY + material
    )
    assert device.compute_quote(bytes(8), 2)[0] == expected


def test_memo_hits_on_repeated_quotes(golden):
    device = fresh_device(golden)
    with isolated_memo():
        device.compute_quote(bytes(8), 1)
        first = memo_stats()
        device.compute_quote(bytes(8), 2)
        again = memo_stats(since=first)
    assert first["misses"] == len(regions(device.platform))
    # A new sequence number is new MAC material: one more entry, keyed
    # on what the cached prefix hasher left unabsorbed plus the
    # material.
    tag_entry = (4 + len(KEY)) % RATE + len(
        quote_material(bytes(8), 2, 0, reference_rows(device.platform))
    ) + sponge.MEMO_ENTRY_BYTES
    assert again == {"hits": first["misses"], "misses": 0,
                     "retained_bytes": first["retained_bytes"] + tag_entry,
                     "prefix_hits": 1, "prefix_misses": 0,
                     "tag_hits": 0, "tag_misses": 1}


# ---------------------------------------------------------------------------
# The verifier's expected quote under every mutation path.

SIBLING_KEY = device_key(0, 1)
KEYS = {0: KEY, 1: SIBLING_KEY}
NONCE = bytes(range(8))


def reference_rows(platform) -> list[tuple[int, bytes]]:
    """``(name_tag, digest)`` of every live row, memo-free."""
    return [
        (row.name_tag, reference_digest(live(platform, region)))
        for row, region in zip(platform.table.rows(), regions(platform))
    ]


def checks(verifier, expected_rows, device):
    """Both verifier paths on ``device``'s quote: the fleet verifier's
    ``expected_quote`` and the service's batch check.  Each starts
    from empty caches warmed only by the device computing its own
    quote, and yields ``(accepted, tag hits, tag misses)``."""
    key = KEYS[device.device_id]

    def online(quote):
        return constant_time_equal(
            quote, verifier.expected_quote(device.device_id, NONCE, 1)
        )

    def batch(quote):
        return verify_quote_batch(QuoteCheckBatch(
            batch_index=0,
            expected_rows=tuple(expected_rows),
            items=((device.device_id, 1, NONCE, quote, key),),
        )) == (True,)

    outcomes = []
    for path in (online, batch):
        with isolated_memo():
            quote, _ = device.compute_quote(NONCE, 1)
            assert quote == reference_mac(key, quote_material(
                NONCE, 1, device.device_id,
                reference_rows(device.platform),
            ))
            before = memo_stats()
            accepted = path(quote)
            tags = memo_stats(since=before)
        outcomes.append((accepted, tags["tag_hits"], tags["tag_misses"]))
    return outcomes


@pytest.mark.parametrize("case", sorted(CASES))
def test_verifier_rejects_every_mutation(case, golden):
    """Each device answers first, so its own quote is in the memo
    before the verifier recomputes the expected one.  The verdict must
    be the memo-free one: a device whose measured code changed is
    rejected on both paths through a tag miss, never a hit, and an
    untouched sibling is accepted through a hit.

    Then the other direction: a round computes the expected tags
    before the devices answer.  A changed device's quote misses those
    tags, equals the memo-free reference and is judged compromised;
    its untouched sibling's quote is a tag hit."""
    mutate, changes, ota = CASES[case]
    devices = hydrate_devices(golden.blob, KEYS)
    if ota:
        v1, _v2, root = signed()
        for device in devices.values():
            device.platform.boot_signed(v1, trust_root=root)
    expected_rows = reference_rows(devices[1].platform)
    if not ota:
        assert expected_rows == list(golden.expected_rows)
    verifier = FleetVerifier(
        devices, InProcessTransport(), KEYS, expected_rows
    )
    platform = mutate(devices[0], golden)
    device = devices[0]
    if platform is not device.platform:
        device = FleetDevice(0, platform, KEY)
    untouched = reference_rows(platform) == expected_rows
    if changes:
        assert not untouched
    verdict = (True, 1, 0) if untouched else (False, 0, 1)
    assert checks(verifier, expected_rows, device) == [verdict] * 2
    assert checks(verifier, expected_rows, devices[1]) == [(True, 1, 0)] * 2
    # A round prefetches both expected tags before the devices answer.
    verifier.devices[0] = device
    quotes = record_quotes(device, devices[1])
    with isolated_memo():
        verdicts = verifier.run_round()
    assert quotes[0] == ((True, 1, 0) if untouched else (True, 0, 1))
    assert quotes[1] == (True, 1, 0)
    assert verdicts[0].status == (HEALTHY if untouched else COMPROMISED)
    assert verdicts[1].status == HEALTHY


def record_quotes(*devices) -> dict:
    """Wrap each device's ``compute_quote`` to record, per device,
    whether its quote equals the memo-free reference and the tag hits
    and misses computing it took."""
    seen = {}
    for device in devices:
        def compute(nonce, seq, device=device,
                    original=device.compute_quote):
            before = memo_stats()
            quote, cycles = original(nonce, seq)
            tags = memo_stats(since=before)
            reference = reference_mac(
                KEYS[device.device_id],
                quote_material(nonce, seq, device.device_id,
                               reference_rows(device.platform)),
            )
            seen[device.device_id] = (
                quote == reference, tags["tag_hits"], tags["tag_misses"]
            )
            return quote, cycles
        device.compute_quote = compute
    return seen


def test_quote_batch_verdicts_equal_single_macs(golden):
    """``verify_quote_batch`` computes its expected tags with one
    ``macs`` call, cold as in a pool process.  A batch holding a forged
    quote and a quote over tampered rows gets the verdicts per-item
    ``mac`` gives."""
    rows = list(golden.expected_rows)
    tampered = [(tag, bytes(16)) for tag, _digest in rows]
    items = []
    for device_id in range(6):
        key = device_key(0, device_id)
        nonce = bytes([device_id]) * 8
        measured = tampered if device_id == 4 else rows
        quote = mac(key, quote_material(nonce, 1, device_id, measured))
        if device_id == 2:
            quote = bytes([quote[0] ^ 1]) + quote[1:]
        items.append((device_id, 1, nonce, quote, key))
    expected = tuple(
        constant_time_equal(quote, reference_mac(
            key, quote_material(nonce, seq, device_id, rows)))
        for device_id, seq, nonce, quote, key in items
    )
    with isolated_memo():
        verdicts = verify_quote_batch(
            QuoteCheckBatch(0, tuple(rows), tuple(items))
        )
    assert verdicts == expected == (True, True, False, True, False, True)


# ---------------------------------------------------------------------------
# The memo itself: aliasing, the byte bound, the input contract.


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_mutating_the_source_in_place_changes_the_digest(wrap):
    source = bytearray(CYCLE[:600])
    data = source if wrap is bytearray else memoryview(source)
    with isolated_memo():
        first = sponge_hash(data)
        source[300] ^= 0x01
        second = sponge_hash(data)
        assert second != first
        assert second == reference_digest(bytes(source))
        source[300] ^= 0x01
        assert sponge_hash(data) == first
        assert memo_stats() == {"hits": 1, "misses": 2,
                                "retained_bytes": 2 * (
                                    600 + sponge.MEMO_ENTRY_BYTES),
                                "prefix_hits": 0, "prefix_misses": 0,
                                "tag_hits": 0, "tag_misses": 0}


def test_key_prefixed_messages_share_the_memo():
    """A short key is absorbed at once and the message is looked up from
    the keyed state, so one message under two keys is two entries, and
    a repeat under either hits."""
    message = CYCLE[:512]
    keys = (b"key-one!", b"key-two!")
    with isolated_memo():
        for _ in range(2):
            tags = [
                SpongeHash().update(key).update(message).digest()
                for key in keys
            ]
        stats = memo_stats()
    assert tags == [reference_digest(key + message) for key in keys]
    assert tags[0] != tags[1]
    assert stats["misses"] == 2 and stats["hits"] == 2


def test_below_threshold_and_oversized_inputs_skip_the_memo():
    small = CYCLE[:sponge.MEMO_MIN_BYTES - 1]
    with isolated_memo(max_bytes=1024):
        assert sponge_hash(small) == reference_digest(small)
        assert sponge_hash(CYCLE[:1600]).hex() == SPONGE_KAT[1600]
        assert memo_stats() == {"hits": 0, "misses": 0,
                                "retained_bytes": 0,
                                "prefix_hits": 0, "prefix_misses": 0,
                                "tag_hits": 0, "tag_misses": 0}


def test_bound_clears_instead_of_growing():
    # An entry is charged its 400 input bytes plus MEMO_ENTRY_BYTES;
    # two hashes fit, three do not.
    entry = 400 + sponge.MEMO_ENTRY_BYTES
    with isolated_memo(max_bytes=2 * entry + 100):
        retained = []
        for start in (0, 8, 16):
            sponge_hash(CYCLE[start:start + 400])
            retained.append(memo_stats()["retained_bytes"])
        assert retained == [entry, 2 * entry, entry]
        assert len(sponge._digests) == 1


@pytest.mark.parametrize("bad", [5, "text", None])
def test_contract_is_unchanged_above_the_threshold(bad):
    hasher = SpongeHash().update(CYCLE[:300])
    with pytest.raises(TypeError):
        hasher.update(bad)
    hasher.digest()
    with pytest.raises(ValueError):
        hasher.update(CYCLE[:300])


#: Inputs for the property: known-answer prefixes (some below the
#: threshold, 1600 above the small test bound) and their one-bit
#: variants, drawn with repeats.
PREFIXES = sorted(SPONGE_KAT) + [256, 300, 511, 700, 1000]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(PREFIXES),
            st.integers(min_value=-1, max_value=1599),
            st.lists(st.integers(min_value=0, max_value=1600), max_size=4),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_property_memo_equals_reference(messages):
    """Random chunkings of repeated inputs, under a bound small enough
    that they force clears, always equal the reference digest and the
    known-answer vectors; retained bytes never pass the bound."""
    bound = 2048
    with isolated_memo(max_bytes=bound):
        for length, flip, cuts in messages:
            data = bytearray(CYCLE[:length])
            if 0 <= flip < length:
                data[flip] ^= 0x80
            hasher = SpongeHash()
            start = 0
            for end in sorted(min(cut, length) for cut in cuts) + [length]:
                hasher.update(data[start:end])
                start = end
                assert memo_stats()["retained_bytes"] <= bound
            digest = hasher.digest()
            assert digest == reference_digest(bytes(data))
            if not 0 <= flip < length and length in SPONGE_KAT:
                assert digest.hex() == SPONGE_KAT[length]


# ---------------------------------------------------------------------------
# The finalization memo, the MAC prefix cache and nonce sources.


def test_tail_flip_misses_and_equals_the_reference(golden):
    """The OS region [364, 1520) is 1,156 bytes: 144 full blocks and a
    4-byte partial tail.  A flip in the tail alone changes the memo's
    key, so the re-measurement misses, and it is still the reference."""
    device = fresh_device(golden)
    platform = device.platform
    region = (364, 1520)
    assert region in regions(platform)
    with isolated_memo():
        warm = live(platform, region)
        assert measure_code(platform.bus, *region) == reference_digest(warm)
        flip_memory_bits(platform, random.Random(0), memory="prom",
                         lo=1516, hi=1520)
        data = live(platform, region)
        assert data != warm and data[:1152] == warm[:1152]
        before = memo_stats()
        assert measure_code(platform.bus, *region) == reference_digest(data)
        delta = memo_stats(since=before)
    assert (delta["hits"], delta["misses"]) == (0, 1)


def reference_mac(key: bytes, message: bytes) -> bytes:
    return reference_digest(len(key).to_bytes(4, "little") + key + message)


def reference_nonce(seed: bytes, counter: int) -> bytes:
    return reference_digest(seed + counter.to_bytes(8, "little"))[:NONCE_SIZE]


#: Key lengths around a block, the 256-byte threshold and the 2 KiB
#: test bound; message lengths the same, so MACs take every path.
KEY_LENGTHS = [0, 1, 4, 16, 252, 300]
MESSAGE_LENGTHS = [0, 3, 20, 260, 700]


#: Ways to hand ``mac`` a key or message: the ``bytearray`` and
#: ``memoryview`` kinds wrap a buffer the test mutates afterwards.
KINDS = ["bytes", "bytearray", "memoryview"]


def wrapped(kind: str, raw: bytes):
    """``raw`` as ``kind`` and the mutable buffer behind it, if any."""
    if kind == "bytes":
        return raw, None
    source = bytearray(raw)
    return (source if kind == "bytearray" else memoryview(source)), source


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(KEY_LENGTHS),
            st.sampled_from(KINDS),
            st.sampled_from(MESSAGE_LENGTHS),
            st.sampled_from(KINDS),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=12,
    ),
    st.lists(st.sampled_from([b"", b"seed", CYCLE[:15], CYCLE[:300]]),
             min_size=1, max_size=6),
    st.integers(min_value=0, max_value=400),
)
def test_property_prefix_cache_equals_reference(macs, seeds, cut):
    """``mac``, ``NonceSource`` and ``copy()`` equal a cache-free
    reference under bounds small enough that the memos and the prefix
    cache are emptied mid-run.  ``mac`` takes every kind of key and
    message, repeated, and mutating a source buffer after a MAC leaves
    no trace in the caches."""
    with isolated_memo(max_bytes=2048, max_prefixes=2):
        for key_length, key_kind, message_length, message_kind, variant \
                in macs:
            raw_key = bytes(CYCLE[variant:variant + key_length])
            raw_message = CYCLE[8 + variant:][:message_length]
            key, key_source = wrapped(key_kind, raw_key)
            message, message_source = wrapped(message_kind, raw_message)
            assert mac(key, message) == reference_mac(raw_key, raw_message)
            for source in (key_source, message_source):
                if source:
                    source[-1] ^= 0x01
            assert mac(key, message) == \
                reference_mac(bytes(key), bytes(message))
            assert mac(raw_key, raw_message) == \
                reference_mac(raw_key, raw_message)
            assert memo_stats()["retained_bytes"] <= 2048

        streams = {}
        for seed in seeds:
            nonces = streams.setdefault(seed, NonceSource(seed))
            counter = nonces._counter + 1
            assert nonces.next_nonce() == reference_nonce(seed, counter)

        data = CYCLE[:400]
        original = SpongeHash().update(data[:cut])
        clone = original.copy()
        assert clone.update(data[cut:]).digest() == reference_digest(data)
        assert original.update(b"other").digest() == \
            reference_digest(data[:cut] + b"other")


#: One step of the mixed property: a plain hash of a prefix of CYCLE,
#: a MAC, a nonce, or a copy cut mid-input.
STEPS = st.one_of(
    st.tuples(st.just("hash"),
              st.sampled_from([0, 7, 64, 255, 256, 300, 700, 1000]),
              st.integers(min_value=-1, max_value=999)),
    st.tuples(st.just("mac"), st.sampled_from(KEY_LENGTHS),
              st.sampled_from(KINDS), st.sampled_from(MESSAGE_LENGTHS),
              st.sampled_from(KINDS)),
    st.tuples(st.just("nonce"),
              st.sampled_from([b"", b"seed", CYCLE[:15], CYCLE[:300]])),
    st.tuples(st.just("copy"), st.sampled_from([0, 20, 300, 700]),
              st.integers(min_value=0, max_value=700)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(STEPS, min_size=1, max_size=16))
def test_property_one_memo_equals_reference(steps):
    """Plain hashes above and below MEMO_MIN_BYTES, MACs over every kind
    of buffer, nonces and copies, under a bound small enough that the
    memo and the prefix cache are emptied mid-run, always equal the
    cache-free reference.  A MAC is exactly one lookup, counted only
    under ``tag_*``; a plain hash is one lookup under ``hits`` and
    ``misses`` when at least MEMO_MIN_BYTES reach ``digest()``
    unabsorbed, and none otherwise; a nonce is none."""
    bound = 2048
    streams = {}
    with isolated_memo(max_bytes=bound, max_prefixes=2):
        for step in steps:
            before = memo_stats()
            kind = step[0]
            if kind == "hash":
                _, length, flip = step
                data = bytearray(CYCLE[:length])
                if 0 <= flip < length:
                    data[flip] ^= 0x80
                assert sponge_hash(data) == reference_digest(bytes(data))
                lookups = int(sponge.MEMO_MIN_BYTES <= length <= bound)
                tags = 0
            elif kind == "mac":
                _, key_length, key_kind, message_length, message_kind = step
                raw_key = CYCLE[:key_length]
                raw_message = CYCLE[3:3 + message_length]
                key, _ = wrapped(key_kind, raw_key)
                message, _ = wrapped(message_kind, raw_message)
                assert mac(key, message) == reference_mac(raw_key, raw_message)
                lookups, tags = 0, 1
            elif kind == "nonce":
                seed = step[1]
                nonces = streams.setdefault(seed, NonceSource(seed))
                counter = nonces._counter + 1
                assert nonces.next_nonce() == reference_nonce(seed, counter)
                lookups = tags = 0
            else:
                _, length, cut = step
                data = CYCLE[:length]
                cut = min(cut, length)
                original = SpongeHash().update(data[:cut])
                clone = original.copy()
                assert clone.update(data[cut:]).digest() == \
                    reference_digest(data)
                assert original.digest() == reference_digest(data[:cut])
                lookups = None
                tags = 0
            delta = memo_stats(since=before)
            assert delta["tag_hits"] + delta["tag_misses"] == tags, step
            if lookups is not None:
                assert delta["hits"] + delta["misses"] == lookups, step
            assert memo_stats()["retained_bytes"] <= bound


def test_macs_share_the_bound():
    """A MAC entry is charged what its prefix hasher left unabsorbed
    (nothing, for a 12-byte key) plus the message bytes and
    MEMO_ENTRY_BYTES, against the one bound.  A message past the bound
    is absorbed as it arrives, so it never enters whole."""
    key = CYCLE[:12]
    entry = 40 + sponge.MEMO_ENTRY_BYTES
    with isolated_memo(max_bytes=2 * entry + 10):
        for start in (0, 40, 0, 80):
            message = CYCLE[start:start + 40]
            assert mac(key, message) == reference_mac(key, message)
        # The third MAC hit; the fourth cleared the first two.
        assert (memo_stats()["tag_hits"], len(sponge._digests)) == (1, 1)
        assert memo_stats()["retained_bytes"] == entry
        big = CYCLE[:3 * entry]
        for _ in range(2):
            assert mac(key, big) == reference_mac(key, big)
            assert memo_stats()["retained_bytes"] <= 2 * entry + 10
        assert all(len(data) < len(big) for _, data in sponge._digests)
        stats = memo_stats()
    assert (stats["hits"], stats["misses"]) == (0, 0)


def test_copies_never_change_the_cached_prefix():
    """Updating or finalizing a handed-out copy, or a MAC on top of
    one, leaves the cached hasher exactly as it was."""
    key = CYCLE[:20]
    prefix = len(key).to_bytes(4, "little") + key
    with isolated_memo():
        first = prefixed(key)
        cached = sponge._prefixes[key]
        assert first is not cached
        state = dict(vars(cached))
        first.update(CYCLE[:300]).digest()
        prefixed(key).update(b"x").digest()
        mac(key, CYCLE[:600])
        prefixed(key).digest()
        assert vars(cached) == state
        assert prefixed(key).digest() == reference_digest(prefix)
        assert mac(key, b"m") == reference_mac(key, b"m")
        stats = memo_stats()
    assert (stats["prefix_hits"], stats["prefix_misses"]) == (5, 1)


def test_entries_are_charged_their_bytes_plus_overhead():
    """Inputs that differ only in their last byte are one entry each,
    charged its input bytes plus MEMO_ENTRY_BYTES, so they fill the
    bound and clear it instead of piling up."""
    shared = CYCLE[:256]
    entry = 257 + sponge.MEMO_ENTRY_BYTES
    bound = 4 * entry + 100
    with isolated_memo(max_bytes=bound):
        sizes = []
        for tail in range(10):
            data = shared + bytes([tail])
            assert sponge_hash(data) == reference_digest(data)
            assert memo_stats()["retained_bytes"] == \
                len(sponge._digests) * entry
            sizes.append(len(sponge._digests))
        stats = memo_stats()
    # Four fit; the fifth clears the memo and starts over.
    assert sizes == [1, 2, 3, 4, 1, 2, 3, 4, 1, 2]
    assert (stats["misses"], stats["hits"]) == (10, 0)


def test_finalized_copy_stays_finalized():
    hasher = SpongeHash().update(CYCLE[:300])
    digest = hasher.digest()
    clone = hasher.copy()
    assert clone.digest() == digest
    with pytest.raises(ValueError):
        clone.update(b"more")
