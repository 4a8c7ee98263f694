"""Coherence of code measurement under every path that mutates a device.

A fleet device re-measures its code live off the bus on every quote.
Each case below warms the measurement of every Trustlet Table row,
drives one mutation path, then re-measures.  Every re-measurement must
equal a reference digest of the same live bytes, fed to the sponge in
8-byte ``update`` calls, which stay below ``MEMO_MIN_BYTES`` and never
touch the absorb memo.  A path that changes the full blocks of a
measured region must also record a memo miss; a region whose full
blocks are unchanged must hit (the partial last block is absorbed by
``digest()``, outside the absorb memo).  ``digest()`` has its own
finalization memo, keyed on (state, partial last block): it must hit
only when the whole region is unchanged, and a second measurement,
served by both memos, must still equal the reference.

The aliasing, bound and property tests below hold the memos, the MAC
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
from repro.crypto import mac, sponge
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
from repro.fleet.device import quote_material
from repro.fleet.parallel import golden_boot, hydrate_devices
from repro.fleet.service import device_key
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
    """Empty memos and prefix cache (optionally with smaller bounds)
    for the block, so counts and clears do not depend on what ran
    before."""
    with mock.patch.multiple(
        sponge,
        _memo={},
        _final={},
        _prefixes={},
        _memo_counts={"hits": 0, "misses": 0, "retained_bytes": 0,
                      "final_hits": 0, "final_misses": 0,
                      "prefix_hits": 0, "prefix_misses": 0},
        MEMO_MAX_BYTES=max_bytes,
        PREFIX_MAX_ENTRIES=max_prefixes,
    ):
        yield


def full_blocks(data: bytes) -> bytes:
    """The part of one ``update`` that the memo keys on."""
    return data[:len(data) - len(data) % RATE]


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
    inject_irq_storm(device.platform, random.Random(4), rate=0.2)
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


#: ``(mutation, changes measured full blocks, boots the v1 container
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
        warm_whole = set()
        for region in regions(device.platform):
            data = live(device.platform, region)
            assert measure_code(device.platform.bus, *region) == \
                reference_digest(data)
            warm.add(full_blocks(data))
            warm_whole.add(data)
        warmed = memo_stats()

        platform = mutate(device, golden)

        changed = 0
        for region in regions(platform):
            data = live(platform, region)
            before = memo_stats()
            digest = measure_code(platform.bus, *region)
            assert digest == reference_digest(data), region
            if full_blocks(data) in warm:
                assert memo_stats(since=before)["hits"] == 1, region
                # The finalization memo serves an unchanged region and
                # misses on a changed tail.
                assert memo_stats(since=before)["final_hits"] == \
                    (data in warm_whole), region
            else:
                changed += 1
            # What it serves or stores is the reference digest.
            before = memo_stats()
            assert measure_code(platform.bus, *region) == \
                reference_digest(data), region
            assert memo_stats(since=before)["final_hits"] == 1, region
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
    assert again == {"hits": first["misses"], "misses": 0,
                     "retained_bytes": first["retained_bytes"],
                     "final_hits": first["misses"], "final_misses": 0,
                     "prefix_hits": 1, "prefix_misses": 0}


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
                                    600 + sponge.FINAL_ENTRY_BYTES),
                                "final_hits": 1, "final_misses": 2,
                                "prefix_hits": 0, "prefix_misses": 0}


def test_key_prefixed_messages_share_the_memo():
    """A MAC's message absorbs from the keyed state, so one message
    under two keys is two entries, and a repeat under either hits."""
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
                                "final_hits": 0, "final_misses": 0,
                                "prefix_hits": 0, "prefix_misses": 0}


def test_bound_clears_instead_of_growing():
    # An absorb entry is charged its 400 key bytes, a finalization
    # entry a fixed FINAL_ENTRY_BYTES; two hashes fit, three do not.
    entry = 400 + sponge.FINAL_ENTRY_BYTES
    with isolated_memo(max_bytes=2 * entry + 100):
        retained = []
        for start in (0, 8, 16):
            sponge_hash(CYCLE[start:start + 400])
            retained.append(memo_stats()["retained_bytes"])
        assert retained == [entry, 2 * entry, entry]
        assert len(sponge._memo) == 1
        # The finalization memo is emptied with it.
        assert len(sponge._final) == 1


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


def test_tail_flip_hits_the_absorb_memo_and_misses_finalization(golden):
    """The OS region [364, 1520) is 1,156 bytes: 144 full blocks and a
    4-byte partial tail.  A flip in the tail leaves the absorb memo's
    key alone, so it hits; the finalization memo's key changes, so it
    misses, and the digest is still the reference."""
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
        assert data != warm and full_blocks(data) == full_blocks(warm)
        before = memo_stats()
        assert measure_code(platform.bus, *region) == reference_digest(data)
        delta = memo_stats(since=before)
    assert (delta["hits"], delta["misses"]) == (1, 0)
    assert (delta["final_hits"], delta["final_misses"]) == (0, 1)


def reference_mac(key: bytes, message: bytes) -> bytes:
    return reference_digest(len(key).to_bytes(4, "little") + key + message)


def reference_nonce(seed: bytes, counter: int) -> bytes:
    return reference_digest(seed + counter.to_bytes(8, "little"))[:NONCE_SIZE]


#: Key lengths around a block, the 256-byte threshold and the 2 KiB
#: test bound; message lengths the same, so MACs take every path.
KEY_LENGTHS = [0, 1, 4, 16, 252, 300]
MESSAGE_LENGTHS = [0, 3, 20, 260, 700]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(KEY_LENGTHS),
            st.sampled_from(["bytes", "memoryview", "bytearray"]),
            st.sampled_from(MESSAGE_LENGTHS),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=10,
    ),
    st.lists(st.sampled_from([b"", b"seed", CYCLE[:15], CYCLE[:300]]),
             min_size=1, max_size=6),
    st.integers(min_value=0, max_value=400),
)
def test_property_prefix_cache_equals_reference(macs, seeds, cut):
    """``mac``, ``NonceSource`` and ``copy()`` equal a cache-free
    reference under bounds small enough that both the memos and the
    prefix cache are emptied mid-run.  A ``bytearray`` key mutated
    after its MAC leaves no trace in the cache."""
    with isolated_memo(max_bytes=2048, max_prefixes=2):
        for key_length, kind, message_length, variant in macs:
            raw = bytes(CYCLE[variant:variant + key_length])
            message = CYCLE[:message_length]
            source = bytearray(raw)
            key = {"bytes": raw, "memoryview": memoryview(source),
                   "bytearray": source}[kind]
            assert mac(key, message) == reference_mac(raw, message)
            if kind == "bytearray" and key_length:
                source[0] ^= 0x01
                assert mac(source, message) == \
                    reference_mac(bytes(source), message)
                assert mac(raw, message) == reference_mac(raw, message)

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


def test_copies_never_change_the_cached_prefix():
    """Updating or finalizing a handed-out copy, or a MAC on top of
    one, leaves the cached hasher exactly as it was."""
    prefix = len(CYCLE[:20]).to_bytes(4, "little") + CYCLE[:20]
    with isolated_memo():
        first = prefixed(prefix)
        cached = sponge._prefixes[prefix]
        assert first is not cached
        state = dict(vars(cached))
        first.update(CYCLE[:300]).digest()
        prefixed(prefix).update(b"x").digest()
        mac(CYCLE[:20], CYCLE[:600])
        prefixed(prefix).digest()
        assert vars(cached) == state
        assert prefixed(prefix).digest() == reference_digest(prefix)
        assert mac(CYCLE[:20], b"m") == reference_mac(CYCLE[:20], b"m")
        stats = memo_stats()
    assert (stats["prefix_hits"], stats["prefix_misses"]) == (5, 1)


def test_short_tails_are_charged_per_entry():
    """Inputs that share their full blocks and differ only in a short
    tail add one finalization entry each.  Each is charged
    FINAL_ENTRY_BYTES, not its tail bytes, so they fill the bound and
    clear it instead of piling up."""
    shared = CYCLE[:256]
    bound = 256 + 4 * sponge.FINAL_ENTRY_BYTES
    with isolated_memo(max_bytes=bound):
        sizes = []
        for tail in range(10):
            data = shared + bytes([tail])
            assert sponge_hash(data) == reference_digest(data)
            assert memo_stats()["retained_bytes"] <= bound
            sizes.append(len(sponge._final))
        stats = memo_stats()
    # Four tails fit beside the shared absorb entry; the fifth clears
    # both memos and starts over.
    assert sizes == [1, 2, 3, 4, 1, 2, 3, 4, 1, 2]
    assert stats["final_misses"] == 10 and stats["final_hits"] == 0


def test_finalized_copy_stays_finalized():
    hasher = SpongeHash().update(CYCLE[:300])
    digest = hasher.digest()
    clone = hasher.copy()
    assert clone.digest() == digest
    with pytest.raises(ValueError):
        clone.update(b"more")
