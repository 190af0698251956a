"""Byte-mutation fuzzing of the decoder.

Property: a stream with one to three bytes changed either fails with a
:class:`StreamFormatError` or decodes to a state that breaks no type
invariant. It need not reproduce the encoder's checksums; nothing in the
stream can tell a changed delta value from an encoded one.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorstream import (
    CompositionMode,
    Quantization,
    StreamConfig,
    StreamFormatError,
    decode_session,
    encode_session,
    generate_scene,
    two_body_arm_spec,
    validate_state,
)
from anchorstream.session import SyntheticSource

COMBOS = [(mode, quant) for mode in CompositionMode for quant in Quantization]
IDS = [f"{mode.name}-{quant.name}" for mode, quant in COMBOS]


@lru_cache(maxsize=None)
def encoded(mode, quantization):
    """A 300-point, 8-frame stream with two reconfigurations and relocation records."""
    spec = two_body_arm_spec(frames=8, seed=5)
    for body in spec.bodies:
        body.point_count //= 4
    source = SyntheticSource(generate_scene(spec))
    base = source.base_gaussians()
    # the exact pivot fit leaves few residuals above 0.002 on this scene
    threshold = 0.001 if mode == CompositionMode.pivot else 0.01
    config = StreamConfig(reconfig_period=3, quantization=quantization, composition_mode=mode,
                          phase1_steps=10, densify_threshold=threshold)
    return base, encode_session(base, source, config)


@pytest.mark.parametrize("mode, quantization", COMBOS, ids=IDS)
def test_fuzz_streams_reconfigure_and_densify(mode, quantization):
    base, enc = encoded(mode, quantization)
    assert len(base) == 300 and len(enc.metrics) == 7
    assert sum(m.reconfig for m in enc.metrics) == 2
    assert sum(m.relocation_bytes > 0 for m in enc.metrics) >= 2
    assert len(enc.state.gaussians) == len(base)


@pytest.mark.parametrize("mode, quantization", COMBOS, ids=IDS)
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_mutated_stream_fails_typed_or_decodes_to_a_valid_state(mode, quantization, data):
    base, enc = encoded(mode, quantization)
    stream = bytearray(enc.stream)
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(stream) - 1), st.integers(1, 255)),
                               min_size=1, max_size=3))
    for offset, flip in edits:
        stream[offset] ^= flip
    try:
        dec = decode_session(base, bytes(stream))
    except StreamFormatError:
        return
    assert validate_state(dec.state) == []
