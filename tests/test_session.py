"""Encoder/decoder sessions, the CLI round trip and PLY I/O.

The mirror contract: the decoder, given the frame-0 input and the stream,
reaches the encoder's state checksum at every frame.
"""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from anchorstream import (
    CompositionMode,
    GaussianSet,
    Quantization,
    StreamConfig,
    codec,
    decode_session,
    encode_session,
    generate_scene,
    iter_decode,
    read_gaussian_ply,
    two_body_arm_spec,
    write_gaussian_ply,
)
from anchorstream.cli import main
from anchorstream.session import SyntheticSource


def small_arm(frames=7, point_scale=0.25, seed=11):
    spec = two_body_arm_spec(frames=frames, seed=seed)
    for body in spec.bodies:
        body.point_count = max(1, round(body.point_count * point_scale))
    return spec


def session_inputs(spec):
    source = SyntheticSource(generate_scene(spec))
    return source.base_gaussians(), source


def assert_mirrored(enc, dec):
    assert [m.frame_index for m in dec.metrics] == [m.frame_index for m in enc.metrics]
    for e, d in zip(enc.metrics, dec.metrics):
        assert d.checksum == e.checksum, f"frame {e.frame_index}"
        assert d.anchor_counts == e.anchor_counts and d.reconfig == e.reconfig
    for le, ld in zip(enc.state.hierarchy.levels, dec.state.hierarchy.levels):
        assert np.array_equal(le.anchor_indices, ld.anchor_indices)
        assert np.array_equal(le.assignment, ld.assignment)


@pytest.mark.parametrize("quantization", list(Quantization), ids=lambda q: q.name)
@pytest.mark.parametrize("mode", list(CompositionMode), ids=lambda m: m.name)
def test_decoder_mirrors_encoder_every_frame(mode, quantization):
    base, source = session_inputs(small_arm())
    config = StreamConfig(reconfig_period=3, quantization=quantization,
                          composition_mode=mode, phase1_steps=20)
    enc = encode_session(base, source, config)
    assert sum(m.reconfig for m in enc.metrics) >= 2
    dec = decode_session(base, enc.stream, config.level_ratio, mode)
    assert_mirrored(enc, dec)


def test_decoder_mirrors_encoder_on_budget_path():
    base, source = session_inputs(small_arm())
    config = StreamConfig(reconfig_period=3, phase1_steps=20,
                          composition_mode=CompositionMode.pivot)
    enc = encode_session(base, source, config, budget_bytes=200)
    assert enc.planned_counts[-1] < math.ceil(len(base) * config.finest_fraction)  # it binds
    dec = decode_session(base, enc.stream, config.level_ratio, config.composition_mode)
    assert_mirrored(enc, dec)


def test_header_only_stream_decodes_to_frame_zero():
    base, source = session_inputs(small_arm(frames=2))
    enc = encode_session(base, source, StreamConfig(phase1_steps=5))
    dec = decode_session(base, enc.stream[:codec.HEADER_BYTES])
    assert dec.metrics == [] and dec.state.frame_index == 0
    assert dec.state.gaussians.positions.tobytes() == base.positions.tobytes()


def test_pivot_accuracy_holds_across_reconfiguration():
    base, source = session_inputs(two_body_arm_spec(frames=7))
    config = StreamConfig(reconfig_period=3, composition_mode=CompositionMode.pivot)
    errors = {m.frame_index: m.mean_error for m in encode_session(base, source, config).metrics}
    for frame in (3, 6):
        assert errors[frame] <= 2.0 * errors[frame - 1], (frame, errors)


def write_spec(path, spec):
    path.write_text(json.dumps(asdict(spec), default=np.ndarray.tolist))


def test_cli_round_trip_exports_the_decoded_states(tmp_path, monkeypatch, capsys):
    spec_path, stream_path, out_dir = tmp_path / "arm.json", tmp_path / "arm.rcgs", tmp_path / "ply"
    write_spec(spec_path, small_arm())
    assert main(["encode", "--input", str(spec_path), "--output", str(stream_path),
                 "--mode", "pivot", "--reconfig-period", "3", "--phase1-steps", "20"]) == 0
    stream = stream_path.read_bytes()
    base = SyntheticSource(generate_scene(small_arm())).base_gaussians()
    expected = {payload.frame_index: write_gaussian_ply(state.gaussians)
                for payload, state in iter_decode(base, stream, 3, CompositionMode.pivot)}
    capsys.readouterr()

    calls = []
    decode_frame = codec.decode_frame

    def counting(*args, **kwargs):
        calls.append(1)
        return decode_frame(*args, **kwargs)

    monkeypatch.setattr(codec, "decode_frame", counting)
    assert main(["decode", "--stream", str(stream_path), "--frame0", str(spec_path),
                 "--mode", "pivot", "--output-dir", str(out_dir), "--export-every", "2"]) == 0
    assert len(calls) == len(expected) == 6
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "frame_0002.ply", "frame_0004.ply", "frame_0006.ply"]
    for frame in (2, 4, 6):
        assert (out_dir / f"frame_{frame:04d}.ply").read_bytes() == expected[frame]
    assert "decoded 6 frames" in capsys.readouterr().out


def test_cli_rejects_a_header_only_stream(tmp_path, capsys):
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "empty.rcgs"
    spec = small_arm(frames=2)
    write_spec(spec_path, spec)
    base, source = session_inputs(spec)
    enc = encode_session(base, source, StreamConfig(phase1_steps=5))
    stream_path.write_bytes(enc.stream[:codec.HEADER_BYTES])
    assert main(["decode", "--stream", str(stream_path), "--frame0", str(spec_path)]) == 1
    assert "no frames" in capsys.readouterr().err


def test_ply_round_trip(rng):
    n = 50
    quats = rng.standard_normal((n, 4))
    gaussians = GaussianSet(
        rng.standard_normal((n, 3)),
        rng.uniform(0.01, 0.5, (n, 3)),
        quats / np.linalg.norm(quats, axis=1, keepdims=True),
        rng.uniform(0.05, 0.95, n),
        rng.standard_normal((n, 12)),
    )
    data = write_gaussian_ply(gaussians)
    back = read_gaussian_ply(data)
    assert len(back) == n
    assert back.positions.tobytes() == gaussians.positions.tobytes()
    assert back.sh.tobytes() == gaussians.sh.tobytes()
    np.testing.assert_allclose(back.scales, gaussians.scales, rtol=1e-5)
    np.testing.assert_allclose(back.orientations, gaussians.orientations, atol=1e-6)
    np.testing.assert_allclose(back.opacities, gaussians.opacities, atol=1e-6)
