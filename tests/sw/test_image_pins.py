"""Byte pins on every canned PROM image.

Each digest is the sha256 of the PROM an :mod:`repro.sw.images` builder
produces at its default arguments, plus one non-default timer period
(the OTA campaign's v2 image differs from its golden image only there).
A change to the assembler, the image builder or the ISA encoder that
moves a single PROM byte fails here.  A deliberate change to guest
software must update its digest and say why.
"""

import hashlib

import pytest

from repro.sw import images

IMAGE_SHA256 = {
    "two_counter": "fbe1c143f4ef8a3c96426e9f8293e5a6694abbdf73676a4f1701d22ce8bef6d4",
    "idle": "4b13a972a9a1360668de6f88860d883718cd328da34d79e9e9d1f1e4f124b39c",
    "ipc": "45c428ea9e2891895efbc3f3e99cad0d0837a71ca1b0713081965d416208d9fe",
    "ipc_heavy": "587438bb802c66208c4fd1e32c149543b346abd26faf1b1d44819012b9c6478f",
    "attestation": "abd3baaf2d26402fa16d26ae390563f1609280980d04706c1009dcba3929ce9a",
    "probe": "7f06a34647c866b116618a166b15cdcf4452daf921274e60a22afceff253c313",
    "broken": "20e1197ba06f2aef9c6837f7f21d4b397baebf0f60e1bd877f6db01c2206eebc",
}

ATTESTATION_3000_SHA256 = (
    "465619ad6b1d0742c38d9a809628b72ae7bce1cbb65b9e3ef0552137965082f7"
)


def _sha256(image) -> str:
    return hashlib.sha256(image.prom).hexdigest()


@pytest.mark.parametrize("name", sorted(IMAGE_SHA256))
def test_default_image_bytes_are_pinned(name):
    builder = getattr(images, f"build_{name}_image")
    assert _sha256(builder()) == IMAGE_SHA256[name]


def test_every_builder_is_pinned():
    builders = {
        attr[len("build_"):-len("_image")]
        for attr in dir(images)
        if attr.startswith("build_") and attr.endswith("_image")
    }
    assert builders == set(IMAGE_SHA256)


def test_attestation_timer_period_3000_is_pinned():
    image = images.build_attestation_image(timer_period=3000)
    assert _sha256(image) == ATTESTATION_3000_SHA256
