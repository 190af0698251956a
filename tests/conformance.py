"""Conformance streams: small committed encodes that every later tree must reproduce.

Each case is a scene spec plus a stream config, defined here, and, for a
budget-planned case, its byte budget in :data:`BUDGETS`. Its stream and its
manifest entry live in ``tests/conformance/``: the stream's SHA-256, its
frame, rebuild and relocation-frame counts, and the state checksum after
every frame. A change that moves any bit of the encoder or the decoder
changes one of them, and ``tests/test_conformance.py`` fails.

Rewrite the streams and the manifest, from the repository root, with:

    PYTHONPATH=src python tests/conformance.py

Do that only for a deliberate change of the stream or the state, and say so
where the change is recorded.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from anchorstream import (
    CompositionMode,
    Quantization,
    StreamConfig,
    SyntheticSource,
    drifting_pair_spec,
    encode_session,
    generate_scene,
    two_body_arm_spec,
)

HERE = Path(__file__).resolve().parent / "conformance"
MANIFEST = HERE / "manifest.json"


def _small_arm():
    """The arm scene at a tenth of its points."""
    spec = two_body_arm_spec(frames=8, seed=3)
    for body in spec.bodies:
        body.point_count = max(1, round(body.point_count * 0.1))
    return spec


def _arm_pivot():
    """The small arm, pivot half16, rebuilt every third frame."""
    return _small_arm(), StreamConfig(composition_mode=CompositionMode.pivot, reconfig_period=3)


def _arm_fixed16():
    """The small arm, pivot fixed16, rebuilt every third frame, relocating on every frame."""
    return _small_arm(), StreamConfig(composition_mode=CompositionMode.pivot, reconfig_period=3,
                                      quantization=Quantization.fixed16, densify_threshold=0.002)


def _arm_full32():
    """The small arm, pivot full32, rebuilt every third frame, relocating on every frame."""
    return _small_arm(), StreamConfig(composition_mode=CompositionMode.pivot, reconfig_period=3,
                                      quantization=Quantization.full32, densify_threshold=0.002)


def _pair_additive():
    """The drifting pair at 150 points a body, additive full32, densifying."""
    spec = drifting_pair_spec(frames=8, seed=3)
    for body in spec.bodies:
        body.point_count = 150
    return spec, StreamConfig(quantization=Quantization.full32, densify_threshold=0.02)


def _pair_budget():
    """The drifting pair at 150 points a body, additive half16, rebuilt every third
    frame, planned for 250 B a frame."""
    spec = drifting_pair_spec(frames=8, seed=3)
    for body in spec.bodies:
        body.point_count = 150
    return spec, StreamConfig(reconfig_period=3, densify_threshold=0.01)


def _pair_fixed16():
    """The drifting pair at 150 points a body, additive fixed16, rebuilt every third frame."""
    spec = drifting_pair_spec(frames=8, seed=4)
    for body in spec.bodies:
        body.point_count = 150
    return spec, StreamConfig(quantization=Quantization.fixed16, reconfig_period=3)


CASES = {"pivot_half16": _arm_pivot, "pivot_fixed16": _arm_fixed16,
         "additive_full32": _pair_additive, "additive_fixed16": _pair_fixed16,
         "additive_half16_budget": _pair_budget, "pivot_full32": _arm_full32}
# bytes per frame handed to the budget planner; a case not named here has no budget
BUDGETS = {"additive_half16_budget": 250}


def case_source(name: str) -> tuple[SyntheticSource, StreamConfig]:
    """The observations one case encodes, and its stream config."""
    spec, config = CASES[name]()
    return SyntheticSource(generate_scene(spec)), config


def encode_case(name: str):
    """The :class:`anchorstream.SessionResult` of one case, encoded afresh."""
    source, config = case_source(name)
    return encode_session(source.base_gaussians(), source, config,
                          budget_bytes=BUDGETS.get(name))


def stream_path(name: str) -> Path:
    return HERE / f"{name}.rcgs"


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def main() -> None:
    HERE.mkdir(exist_ok=True)
    manifest = {}
    for name in CASES:
        result = encode_case(name)
        stream_path(name).write_bytes(result.stream)
        manifest[name] = {
            "sha256": hashlib.sha256(result.stream).hexdigest(),
            "frames": len(result.metrics),
            "relocation_frames": sum(row.relocation_bytes > 0 for row in result.metrics),
            "rebuilds": sum(row.reconfig for row in result.metrics),
            "checksums": [row.checksum for row in result.metrics],
        }
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
