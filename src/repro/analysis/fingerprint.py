"""Canonical, byte-deterministic CFG fingerprints.

A trustlet's code *bytes* are already measured by the Secure Loader;
the fingerprint measures its *shape*: basic blocks, typed edges, and
the statically-resolved indirect-transfer target sets.  Two builds
with identical control structure fingerprint identically even if
NOP-level bytes differ, and a verifier holding the fingerprint can
bind an attestation quote to the CFG the device is expected to
execute — the static half of control-flow attestation (ISC-FLAT in
PAPERS.md), without any runtime tracing.

Determinism contract: the serialization is a sorted line protocol over
module-relative offsets (absolute addresses only for cross-module
targets, which are part of the linked layout being measured), hashed
with the repo's sponge.  No dict iteration order, set order, or
Python hash randomization can leak in — repeated runs and different
hosts produce identical digests byte for byte.
"""

from __future__ import annotations

from repro.analysis.cfg import ModuleCfg
from repro.analysis.dataflow import ModuleDataflow
from repro.crypto import sponge_hash


def _target_token(cfg: ModuleCfg, target: int | None) -> str:
    if target is None:
        return "?"
    if cfg.contains(target):
        return f"+{target - cfg.base:#x}"
    return f"={target:#010x}"


def serialize_cfg(
    cfg: ModuleCfg, flow: ModuleDataflow | None = None
) -> str:
    """Canonical text form of one module's control-flow shape."""
    lines = [f"cfg/1 size={cfg.end - cfg.base:#x}"]
    for block in sorted(cfg.blocks, key=lambda b: b.start):
        lines.append(
            f"block +{block.start - cfg.base:#x} +{block.end - cfg.base:#x}"
        )
    edges = sorted(
        (edge for block in cfg.blocks for edge in block.edges),
        key=lambda e: (e.source, e.kind.value, e.target or -1),
    )
    for edge in edges:
        lines.append(
            f"edge +{edge.source - cfg.base:#x} {edge.kind.value} "
            f"{_target_token(cfg, edge.target)}"
        )
    for gap in sorted(cfg.data_words):
        lines.append(f"data +{gap - cfg.base:#x}")
    if flow is not None:
        for fact in sorted(flow.jump_facts, key=lambda f: f.address):
            if fact.targets is None:
                token = "?"
            else:
                token = ",".join(
                    _target_token(cfg, t) for t in sorted(fact.targets)
                )
            lines.append(
                f"ijmp +{fact.address - cfg.base:#x} {fact.op} {token}"
            )
    return "\n".join(lines) + "\n"


def fingerprint_module(
    cfg: ModuleCfg, flow: ModuleDataflow | None = None
) -> str:
    """Hex digest of one module's canonical CFG serialization."""
    return sponge_hash(serialize_cfg(cfg, flow).encode()).hex()


def fingerprint_image(module_digests: dict[str, str]) -> str:
    """Hex digest binding every module's CFG digest into one image
    measurement (sorted by module name)."""
    blob = "".join(
        f"{name}={digest}\n"
        for name, digest in sorted(module_digests.items())
    )
    return sponge_hash(blob.encode()).hex()
