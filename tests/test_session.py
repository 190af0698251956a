"""Encoder/decoder sessions, the CLI round trip and PLY I/O.

The mirror contract: the decoder, given the frame-0 input and the stream,
reaches the encoder's state checksum at every frame.
"""

import ast
import copy
import csv
import hashlib
import inspect
import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest

from anchorstream import (
    BodySpec,
    CompositionMode,
    ConfigError,
    Correspondences,
    Encoder,
    GaussianSet,
    NumericalError,
    PlyParseError,
    Quantization,
    SceneSpec,
    SceneState,
    StreamConfig,
    StreamFormatError,
    apply_deformation,
    build_hierarchy,
    codec,
    decode_session,
    drifting_pair_spec,
    encode_session,
    generate_scene,
    grid_resolution,
    iter_decode_metrics,
    read_gaussian_ply,
    state_checksum,
    two_body_arm_spec,
    validate_state,
    write_gaussian_ply,
)
from anchorstream import cli, fitting, session
from anchorstream.cli import main
from anchorstream.hierarchy import level_caps
from anchorstream.session import StaticSource, SyntheticSource

from oracles import exhaustive_l1_assign


def small_arm(frames=7, point_scale=0.25, seed=11):
    spec = two_body_arm_spec(frames=frames, seed=seed)
    for body in spec.bodies:
        body.point_count = max(1, round(body.point_count * point_scale))
    return spec


def session_inputs(spec):
    source = SyntheticSource(generate_scene(spec))
    return source.base_gaussians(), source


def stream_payloads(stream):
    """Each frame's payload and the offset just past it, read without decoding."""
    end = codec.HEADER_BYTES
    for payload, size in codec.iter_frames(stream, codec.StreamHeader.unpack(stream)):
        end += size
        yield payload, end


def payload_fields(payload):
    """A parsed frame as bytes: its index, every delta block and its records."""
    deltas = payload.deltas
    return (payload.frame_index,
            *(ds.translations.tobytes() + ds.rotations.tobytes() for ds in deltas.per_level),
            deltas.relocation_ordinals.tobytes(), deltas.relocation_positions.tobytes())


def csv_rows(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def byte_split(row):
    return row.payload_bytes, row.delta_bytes, row.relocation_bytes, row.overhead_bytes


def assert_mirrored(enc, dec):
    assert [m.frame_index for m in dec.metrics] == [m.frame_index for m in enc.metrics]
    for e, d in zip(enc.metrics, dec.metrics):
        assert d.checksum == e.checksum, f"frame {e.frame_index}"
        assert d.anchor_counts == e.anchor_counts and d.reconfig == e.reconfig
        assert byte_split(d) == byte_split(e), f"frame {e.frame_index}"
    for le, ld in zip(enc.state.hierarchy.levels, dec.state.hierarchy.levels):
        assert np.array_equal(le.anchor_indices, ld.anchor_indices)
        assert np.array_equal(le.assignment, ld.assignment)


def far_fit(fit):
    """``fit``, but every translation of the two coarsest levels moves x by 3e38:
    the sum leaves float32 range."""
    def fitting(*args):
        fitted = fit(*args)
        for ds in fitted.per_level[:2]:
            ds.translations[:, 0] = 3e38
        return fitted

    return fitting


@pytest.mark.parametrize("quantization", list(Quantization), ids=lambda q: q.name)
@pytest.mark.parametrize("mode", list(CompositionMode), ids=lambda m: m.name)
def test_decoder_mirrors_encoder_every_frame(mode, quantization, monkeypatch):
    applied = []
    advance = session._advance_state

    def recording(state, payload, *rest):
        applied.append(payload_fields(payload))
        return advance(state, payload, *rest)

    monkeypatch.setattr(session, "_advance_state", recording)
    base, source = session_inputs(small_arm())
    config = StreamConfig(reconfig_period=3, quantization=quantization,
                          composition_mode=mode, phase1_steps=20)
    enc = encode_session(base, source, config)
    assert sum(m.reconfig for m in enc.metrics) >= 2
    # the encoder applied, frame by frame, exactly what a decoder parses from its stream
    assert applied == [payload_fields(p) for p, _ in stream_payloads(enc.stream)]
    dec = decode_session(base, enc.stream, config.level_ratio, mode)
    assert_mirrored(enc, dec)


def test_decoder_mirrors_encoder_on_budget_path():
    base, source = session_inputs(small_arm())
    config = StreamConfig(reconfig_period=3, phase1_steps=20,
                          composition_mode=CompositionMode.pivot)
    enc = encode_session(base, source, config, budget_bytes=600)
    # it binds: finest 9 of a possible 13, whose caps (8, 8, 27) cost 627 B
    assert enc.header.config.finest_fraction * len(base) == 9
    assert level_caps(len(base), enc.header.config) == (1, 8, 27)
    dec = decode_session(base, enc.stream, config.level_ratio, config.composition_mode)
    assert_mirrored(enc, dec)


@pytest.mark.parametrize("budget", [600, 1200])
@pytest.mark.parametrize("ratio", [2, 3, 4])
def test_budget_holds_at_every_frame_of_a_relocating_session(ratio, budget):
    base, source = session_inputs(small_arm(point_scale=0.5))
    config = StreamConfig(level_ratio=ratio, reconfig_period=3, phase1_steps=20,
                          densify_threshold=0.01)
    enc = encode_session(base, source, config, budget_bytes=budget)
    assert sum(m.reconfig for m in enc.metrics) >= 2
    assert any(m.relocation_bytes for m in enc.metrics)
    overhead = codec.frame_overhead_bytes(config.levels)
    caps = level_caps(len(base), enc.header.config)
    for m in enc.metrics:
        cost = codec.delta_block_bytes(m.anchor_counts, config.quantization,
                                       config.composition_mode) + overhead
        assert cost <= budget, (m.frame_index, m.anchor_counts)
        assert all(c <= cap for c, cap in zip(m.anchor_counts, caps))
    dec = decode_session(base, enc.stream, ratio, config.composition_mode)
    assert_mirrored(enc, dec)


ENCODER_CASES = [(mode, quantization, None) for mode in CompositionMode
                 for quantization in Quantization]
ENCODER_CASES.append((CompositionMode.pivot, Quantization.half16, 600))


@pytest.mark.parametrize("mode, quantization, budget", ENCODER_CASES,
                         ids=lambda v: getattr(v, "name", f"budget{v}"))
def test_encoder_steps_write_the_sessions_stream_and_rows(mode, quantization, budget):
    base, source = session_inputs(small_arm(frames=6))
    config = StreamConfig(reconfig_period=2, quantization=quantization, composition_mode=mode,
                          phase1_steps=5, densify_threshold=0.003)
    enc = encode_session(base, source, config, budget_bytes=budget)
    encoder = Encoder(base, config, budget_bytes=budget)
    chunks, rows = [encoder.header.pack()], []
    for t in range(1, source.frame_count):
        data, row = encoder.step(source.correspondences(t))
        chunks.append(data)
        rows.append(row)
    assert b"".join(chunks) == enc.stream
    assert rows == enc.metrics
    assert encoder.header == enc.header and state_checksum(encoder.state) == rows[-1].checksum
    assert sum(m.reconfig for m in rows) == 2 and any(m.relocation_bytes for m in rows)


def test_an_online_caller_observing_a_changing_subset_is_mirrored():
    scene = generate_scene(small_arm(frames=7))
    base = GaussianSet.from_positions(scene.positions[0].astype(np.float32))
    encoder = Encoder(base, StreamConfig(reconfig_period=3, phase1_steps=5))
    rng = np.random.default_rng(5)
    chunks, rows = [encoder.header.pack()], []
    for t in range(1, 7):  # a different two thirds of the gaussians each frame, in any order
        seen = rng.permutation(len(base))[:2 * len(base) // 3]
        data, row = encoder.step(Correspondences(seen, scene.targets[t][seen]))
        chunks.append(data)
        rows.append(row)
    dec = decode_session(base, b"".join(chunks))
    assert [m.frame_index for m in rows] == list(range(1, 7))
    assert [m.checksum for m in dec.metrics] == [m.checksum for m in rows]
    assert [byte_split(m) for m in dec.metrics] == [byte_split(m) for m in rows]


@pytest.mark.parametrize("frame", [1, 2], ids=["index_past_n", "deltas_out_of_range"])
def test_a_step_that_raises_leaves_the_encoder_ready_to_encode_that_frame(frame, monkeypatch):
    base, source = session_inputs(small_arm(frames=5))
    config = StreamConfig(reconfig_period=2, quantization=Quantization.full32, phase1_steps=5)
    fresh, encoder = Encoder(base, config), Encoder(base, config)
    steps = [fresh.step(source.correspondences(t)) for t in range(1, 5)]
    for t in range(1, frame):
        assert encoder.step(source.correspondences(t)) == steps[t - 1]
    before = state_checksum(encoder.state)
    corr = source.correspondences(frame)
    if frame == 1:
        with pytest.raises(ValueError, match=f"index {len(base)} is past the last"):
            encoder.step(Correspondences(np.append(corr.indices, len(base)),
                                         np.vstack([corr.targets, corr.targets[:1]])))
    else:  # a rebuild frame whose deltas leave float32 range fails in the apply step
        monkeypatch.setattr(session, "fit_frame", far_fit(session.fit_frame))
        with pytest.raises(NumericalError, match=f"frame {frame}: deltas carry gaussians out"):
            encoder.step(corr)
        monkeypatch.undo()
    assert encoder.state.frame_index == frame - 1
    assert state_checksum(encoder.state) == before
    for t in range(frame, 5):
        assert encoder.step(source.correspondences(t)) == steps[t - 1]


def test_decoder_reports_the_encoders_payload_bytes():
    base, source = session_inputs(small_arm(point_scale=0.5))
    config = StreamConfig(reconfig_period=3, phase1_steps=20, densify_threshold=0.01)
    enc = encode_session(base, source, config)
    dec = decode_session(base, enc.stream)
    assert [m.payload_bytes for m in dec.metrics] == [m.payload_bytes for m in enc.metrics]
    assert sum(m.payload_bytes for m in dec.metrics) == len(enc.stream) - codec.HEADER_BYTES
    lazy = [(repr(m), state.frame_index) for m, state in iter_decode_metrics(base, enc.stream)]
    assert lazy == [(repr(m), m.frame_index) for m in dec.metrics]  # nan compares by repr


@pytest.mark.parametrize("quantization", list(Quantization), ids=lambda q: q.name)
@pytest.mark.parametrize("mode", list(CompositionMode), ids=lambda m: m.name)
def test_rows_split_payload_bytes_alike_on_both_sides(mode, quantization):
    base, source = session_inputs(small_arm(point_scale=0.5))
    config = StreamConfig(reconfig_period=3, quantization=quantization, composition_mode=mode,
                          phase1_steps=20, densify_threshold=0.01)
    enc = encode_session(base, source, config)
    dec = decode_session(base, enc.stream)
    assert sum(m.reconfig for m in enc.metrics) >= 2
    assert any(m.relocation_bytes for m in enc.metrics)
    for rows in (enc.metrics, dec.metrics):
        for m in rows:
            assert m.delta_bytes + m.relocation_bytes + m.overhead_bytes == m.payload_bytes
            assert m.relocation_bytes % codec.RELOCATION_BYTES == 0
    assert [byte_split(m) for m in dec.metrics] == [byte_split(m) for m in enc.metrics]
    report = enc.report
    assert (report.delta_bytes, report.relocation_bytes, report.overhead_bytes) == tuple(
        sum(column) for column in zip(*(byte_split(m)[1:] for m in enc.metrics)))
    assert report.total_bytes == len(enc.stream) - codec.HEADER_BYTES


def test_step_counts_come_from_the_stream_config():
    base, source = session_inputs(small_arm(frames=4))
    config = StreamConfig(reconfig_period=2, phase1_steps=0)
    enc = encode_session(base, source, config)
    for payload, _ in stream_payloads(enc.stream):
        for block in payload.deltas.per_level:  # no fit step moved the zero init
            assert not block.translations.any() and not block.rotations.any()


@pytest.mark.parametrize("mode", list(CompositionMode), ids=lambda m: m.name)
def test_each_fit_starts_from_the_previous_frames_deltas(mode, monkeypatch):
    starts, inherited = [], []
    fit, inherit = session.fit_frame, session.inherit_deformation

    def recording_fit(hierarchy, corr, init, *rest):
        starts.append([(ds.translations.copy(), ds.rotations.copy()) for ds in init.per_level])
        return fit(hierarchy, corr, init, *rest)

    def recording_inherit(legacy, neighbor_map):
        inherited.append(inherit(legacy, neighbor_map))
        return inherited[-1]

    monkeypatch.setattr(session, "fit_frame", recording_fit)
    monkeypatch.setattr(session, "inherit_deformation", recording_inherit)
    base, source = session_inputs(small_arm(frames=7))
    config = StreamConfig(reconfig_period=3, composition_mode=mode, phase1_steps=5)
    enc = encode_session(base, source, config)
    decoded = {p.frame_index: p.deltas.per_level for p, _ in stream_payloads(enc.stream)}
    levels = config.levels
    assert len(starts) == 6 and len(inherited) == 2 * levels
    assert not any(t.any() or q.any() for t, q in starts[0])  # frame 1 starts from rest
    for frame in range(2, 7):
        if frame % 3 == 0:  # a rebuild: the previous deltas inherited onto the new anchors
            rebuild = frame // 3 - 1
            want = inherited[rebuild * levels:(rebuild + 1) * levels]
        else:
            want = decoded[frame - 1]
        got = starts[frame - 1]
        assert len(got) == len(want) == levels
        for (t, q), ds in zip(got, want):
            assert t.dtype == ds.translations.dtype and q.dtype == ds.rotations.dtype
            assert t.tobytes() == ds.translations.tobytes(), frame
            assert q.tobytes() == ds.rotations.tobytes(), frame
    assert any(t.any() for t, _ in starts[1])  # a warm start, not zeros


@pytest.mark.parametrize("mode", list(CompositionMode), ids=lambda m: m.name)
def test_each_step_gathers_the_observed_rows_once(mode, monkeypatch):
    gathers, gather = [], fitting.gather_rows
    monkeypatch.setattr(fitting, "gather_rows", lambda *args: gathers.append(args) or gather(*args))
    base, source = session_inputs(small_arm(frames=4))
    config = StreamConfig(reconfig_period=2, composition_mode=mode, phase1_steps=5,
                          phase2_steps=1)
    encoder = Encoder(base, config)
    for t in range(1, 4):  # frame 2 rebuilds the hierarchy
        gathers.clear()
        encoder.step(source.correspondences(t))
        # the fit's evaluations, the densify residuals and the frame's loss share it
        assert len(gathers) == 1, t


def test_header_only_stream_decodes_to_frame_zero():
    base, source = session_inputs(small_arm(frames=2))
    enc = encode_session(base, source, StreamConfig(phase1_steps=5))
    dec = decode_session(base, enc.stream[:codec.HEADER_BYTES])
    assert dec.metrics == [] and dec.state.frame_index == 0
    assert dec.state.gaussians.positions.tobytes() == base.positions.tobytes()


def count_decoded_frames(monkeypatch):
    calls = []
    decode_frame = codec.decode_frame

    def counting(*args, **kwargs):
        calls.append(1)
        return decode_frame(*args, **kwargs)

    monkeypatch.setattr(codec, "decode_frame", counting)
    return calls


def test_header_settings_that_contradict_the_callers_fail_before_frame_one(monkeypatch):
    base, source = session_inputs(small_arm(frames=4))
    config = StreamConfig(level_ratio=2, composition_mode=CompositionMode.pivot,
                          phase1_steps=5)
    enc = encode_session(base, source, config)
    calls = count_decoded_frames(monkeypatch)
    with pytest.raises(StreamFormatError, match="composition mode pivot, caller expects additive"):
        decode_session(base, enc.stream, composition_mode=CompositionMode.additive)
    with pytest.raises(StreamFormatError, match="level ratio 2, caller expects 3"):
        decode_session(base, enc.stream, 3, CompositionMode.pivot)
    assert calls == []
    # matching expectations, or none, decode as the encoder ran
    assert_mirrored(enc, decode_session(base, enc.stream, 2, CompositionMode.pivot))
    assert_mirrored(enc, decode_session(base, enc.stream))


def first_frame_blocks(stream, mode):
    """Frame 1's delta blocks per level: (translation offset, anchor count,
    rotation offset or None)."""
    levels = codec.StreamHeader.unpack(stream).config.levels
    at = codec.HEADER_BYTES + 8
    counts = np.frombuffer(stream, "<u4", levels, at)
    at += 4 * levels
    blocks = []
    for count in counts:
        rot = at + 12 * count if mode == CompositionMode.pivot else None
        blocks.append((at, count, rot))
        at += 4 * count * codec.values_per_anchor(mode)
    return blocks


def test_decode_names_the_frame_whose_deltas_break_the_state():
    base, source = session_inputs(small_arm(frames=3))
    streams = {mode: encode_session(base, source, StreamConfig(
        quantization=Quantization.full32, composition_mode=mode, phase1_steps=5)).stream
        for mode in CompositionMode}
    for mode, stream in streams.items():
        # every translation of the two coarsest levels moves x by 3e38: the
        # sum leaves float32 range
        far = bytearray(stream)
        for at, count, _ in first_frame_blocks(stream, mode)[:2]:
            values = np.frombuffer(far, "<f4", 3 * count, at).copy().reshape(count, 3)
            values[:, 0] = 3e38
            far[at:at + values.nbytes] = values.tobytes()
        with pytest.raises(StreamFormatError, match="frame 1: deltas carry gaussians out of"):
            decode_session(base, bytes(far))
    # a pivot increment of (-1, 0, 0, 0) leaves no rotation to normalize
    stream = streams[CompositionMode.pivot]
    _, _, rot = first_frame_blocks(stream, CompositionMode.pivot)[0]
    degenerate = bytearray(stream)
    degenerate[rot:rot + 16] = np.float32([-1, 0, 0, 0]).tobytes()
    with pytest.raises(StreamFormatError, match="frame 1: pivot increment for anchor 0"):
        decode_session(base, bytes(degenerate))


@pytest.mark.parametrize("mode", list(CompositionMode), ids=lambda m: m.name)
def test_encode_stops_at_the_frame_whose_deltas_break_the_state(mode, monkeypatch):
    monkeypatch.setattr(session, "fit_frame", far_fit(session.fit_frame))
    base, source = session_inputs(small_arm(frames=3))
    config = StreamConfig(quantization=Quantization.full32, composition_mode=mode,
                          phase1_steps=5)
    with pytest.raises(NumericalError, match="frame 1: deltas carry gaussians out of float32"):
        encode_session(base, source, config)


def far_arm():
    """A small two-body arm whose parent moves 1e5 per frame, past what half16 holds."""
    spec = two_body_arm_spec()
    for body in spec.bodies:
        body.point_count = 60
    spec.bodies[0].velocity = np.array([1e5, 0.0, 0.0])
    return spec


HALF16_OVERFLOW = ("frame 1: level 1 holds the delta 100000, which half16 rounds to infinity; "
                   "encode with full32 or fixed16")


def test_a_delta_that_half16_cannot_hold_is_a_config_error_naming_frame_and_level():
    base, source = session_inputs(far_arm())
    with pytest.raises(ConfigError, match=HALF16_OVERFLOW):
        encode_session(base, source, StreamConfig())
    for quantization in (Quantization.full32, Quantization.fixed16):
        config = StreamConfig(quantization=quantization)
        enc = encode_session(base, source, config)
        assert_mirrored(enc, decode_session(base, enc.stream))


def test_cli_encode_of_a_delta_that_half16_cannot_hold_exits_2(tmp_path, capsys):
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "arm.rcgs"
    write_spec(spec_path, far_arm())
    assert main(["encode", "--input", str(spec_path), "--output", str(stream_path)]) == 2
    assert HALF16_OVERFLOW in capsys.readouterr().err
    assert not stream_path.exists()


def relocation_stream():
    """A full32 session with relocation records, and (frame, payload end, record count)
    per frame."""
    base, source = session_inputs(small_arm(point_scale=0.5))
    config = StreamConfig(reconfig_period=3, quantization=Quantization.full32,
                          phase1_steps=10, densify_threshold=0.01)
    enc = encode_session(base, source, config)
    frames = [(payload.frame_index, end, len(payload.deltas.relocation_ordinals))
              for payload, end in stream_payloads(enc.stream)]
    return base, enc, frames


def test_relocations_overwrite_positions_and_reassign_their_clusters():
    base, enc, _ = relocation_stream()
    config = enc.header.config
    previous = SceneState(base.copy(), build_hierarchy(base, config), 0)
    moved = 0
    for (payload, _), (_, state) in zip(stream_payloads(enc.stream),
                                         iter_decode_metrics(base, enc.stream), strict=True):
        hierarchy = previous.hierarchy
        if enc.header.reconfigures_at(payload.frame_index):
            hierarchy = build_hierarchy(previous.gaussians, config)
        deformed = apply_deformation(previous.gaussians, hierarchy, payload.deltas,
                                     config.composition_mode)
        ordinals, targets = payload.deltas.relocation_ordinals, payload.deltas.relocation_positions
        positions = deformed.positions.copy()
        positions[ordinals] = targets
        got = state.gaussians
        assert len(got) == len(base)
        assert got.positions.tobytes() == positions.tobytes()
        for col, want in zip(got.attribute_arrays()[1:], deformed.attribute_arrays()[1:]):
            assert col.tobytes() == want.tobytes()
        for lvl, before in zip(state.hierarchy.levels, hierarchy.levels):
            assert np.array_equal(lvl.anchor_indices, before.anchor_indices)
            want = before.assignment.copy()  # only the relocated rows change cluster
            want[ordinals] = exhaustive_l1_assign(targets, positions[lvl.anchor_indices])
            assert np.array_equal(lvl.assignment, want), payload.frame_index
        moved += len(ordinals)
        previous = copy.deepcopy(state)
    assert moved > 0


def ply_style_inputs(spec, seed):
    """``spec``'s scene with random appearance, so every frozen column holds distinct values."""
    _, source = session_inputs(spec)
    rng = np.random.default_rng(seed)
    n = source.scene.point_count
    q = rng.standard_normal((n, 4))
    base = GaussianSet(source.scene.positions[0], rng.uniform(0.01, 0.2, (n, 3)),
                       q / np.linalg.norm(q, axis=1, keepdims=True),
                       rng.uniform(0.0, 1.0, n), rng.standard_normal((n, 12)))
    return base, source


@pytest.mark.parametrize("quantization", list(Quantization), ids=lambda q: q.name)
def test_additive_session_keeps_the_appearance_of_ply_style_gaussians(quantization):
    base, source = ply_style_inputs(small_arm(point_scale=0.5), 5)
    config = StreamConfig(reconfig_period=3, quantization=quantization, phase1_steps=20,
                          densify_threshold=0.01)
    enc = encode_session(base, source, config)
    appearance = base.attribute_arrays()[1:]  # scales, orientations, opacities, sh
    for (_, state), m in zip(iter_decode_metrics(base, enc.stream), enc.metrics, strict=True):
        for got, want in zip(state.gaussians.attribute_arrays()[1:], appearance):
            assert got.tobytes() == want.tobytes(), f"frame {m.frame_index}"
        assert state_checksum(state) == m.checksum
    assert any(m.relocation_bytes for m in enc.metrics)


def rebuilding_config(mode):
    """Rebuilds on frames 2 and 4 of a 6-frame small arm, and relocates on frames 1 and 2."""
    return StreamConfig(reconfig_period=2, quantization=Quantization.full32,
                        composition_mode=mode, phase1_steps=5, densify_threshold=0.003)


def documented_checksum(state):
    """SHA-256 of scales, opacities, sh, the u64 LE frame index, positions, orientations."""
    g = state.gaussians
    digest = hashlib.sha256()
    for col in (g.scales, g.opacities, g.sh):
        digest.update(col.tobytes())
    digest.update(struct.pack("<Q", state.frame_index))
    for col in (g.positions, g.orientations):
        digest.update(col.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("mode", list(CompositionMode), ids=lambda m: m.name)
def test_every_rows_checksum_hashes_the_documented_bytes_on_both_sides(mode):
    base, source = ply_style_inputs(small_arm(frames=6), 7)
    config = rebuilding_config(mode)
    enc = encode_session(base, source, config)
    assert sum(m.reconfig for m in enc.metrics) == 2
    assert sum(m.relocation_bytes > 0 for m in enc.metrics) >= 2
    encoder = Encoder(base, config)
    for t, want in enumerate(enc.metrics, start=1):
        _, row = encoder.step(source.correspondences(t))
        assert row == want
        assert row.checksum == documented_checksum(encoder.state), f"encoder frame {t}"
    decoded = iter_decode_metrics(base, enc.stream)
    for (row, state), want in zip(decoded, enc.metrics, strict=True):
        assert row.checksum == want.checksum == documented_checksum(state), \
            f"decoder frame {row.frame_index}"


@pytest.mark.parametrize("mode", list(CompositionMode), ids=lambda m: m.name)
def test_every_frame_shares_the_sessions_read_only_frozen_columns(mode):
    base, source = ply_style_inputs(small_arm(frames=6), 7)
    config = rebuilding_config(mode)
    want = [col.copy() for col in base.frozen_columns()]
    stream = encode_session(base, source, config).stream
    encoder = Encoder(base, config)
    header, dec_state = session._start_decode(base, stream)
    enc_frozen = encoder.state.gaussians.frozen_columns()
    dec_frozen = dec_state.gaussians.frozen_columns()
    decoded = session._decode_frames(stream, header, dec_state)
    for t in range(1, source.frame_count):
        encoder.step(source.correspondences(t))
        _, dec_state = next(decoded)
        for side, g, frozen in (("encoder", encoder.state.gaussians, enc_frozen),
                                ("decoder", dec_state.gaussians, dec_frozen)):
            assert all(a is b for a, b in zip(g.frozen_columns(), frozen)), f"{side} frame {t}"
    for enc_col, dec_col, col, before in zip(enc_frozen, dec_frozen, base.frozen_columns(), want):
        assert enc_col.tobytes() == dec_col.tobytes() == before.tobytes()
        for frozen_col in (enc_col, dec_col):
            assert not frozen_col.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                frozen_col[0] = 1.0
            assert not np.shares_memory(col, frozen_col)
        col[0] = 1.0  # the caller's base stays writable
    # and writing it leaves the session's copies as they were
    assert [col.tobytes() for col in enc_frozen] == [col.tobytes() for col in want]


def test_a_frame0_whose_scale_differs_in_one_gaussian_decodes_to_other_checksums():
    base, source = ply_style_inputs(small_arm(frames=6), 7)
    enc = encode_session(base, source, rebuilding_config(CompositionMode.additive))
    other = base.copy()
    other.scales[17, 1] = np.nextafter(other.scales[17, 1], np.float32(1))
    decoded = iter_decode_metrics(other, enc.stream)
    for (row, state), want in zip(decoded, enc.metrics, strict=True):
        # the positions mirror the encoder's; only the frozen prefix of the checksum differs
        assert row.checksum != want.checksum, f"frame {want.frame_index}"
        assert row.checksum == documented_checksum(state)
    assert state.gaussians.positions.tobytes() == enc.state.gaussians.positions.tobytes()


def test_bad_relocation_record_fails_naming_the_frame_before_the_state_changes():
    base, enc, frames = relocation_stream()
    frame, end, count = frames[2]  # frame 3 relocates, and its schedule rebuilds the hierarchy
    assert frame == 3 and count >= 2
    n = len(base)
    last_at, positions_at = end - 12 * count - 4, end - 12 * count
    for value in (n, 2**32 - 1):
        bad = bytearray(enc.stream)
        bad[last_at:last_at + 4] = np.uint32(value).tobytes()
        with pytest.raises(StreamFormatError, match=f"frame {frame}: relocation ordinal {value} "
                                                    f"is not below the gaussian count {n}"):
            decode_session(base, bytes(bad))
    # the state after frame 2 stays as it was, hierarchy included
    decoded = iter_decode_metrics(base, bytes(bad))
    for _ in range(frame - 1):
        _, state = next(decoded)
    checksum, hierarchy = state_checksum(state), state.hierarchy
    assignments = [lvl.assignment.copy() for lvl in hierarchy.levels]
    with pytest.raises(StreamFormatError, match=f"frame {frame}: relocation ordinal "):
        next(decoded)
    assert state_checksum(state) == checksum and state.hierarchy is hierarchy
    for lvl, assignment in zip(hierarchy.levels, assignments):
        assert np.array_equal(lvl.assignment, assignment)
    # an ordinal named twice: numpy leaves unspecified which of its writes wins
    twice = bytearray(enc.stream)
    twice[last_at:last_at + 4] = twice[last_at - 4:last_at]
    with pytest.raises(StreamFormatError, match=f"frame {frame}: relocation ordinals must be "
                                                f"strictly increasing"):
        decode_session(base, bytes(twice))
    for value in (np.nan, np.inf):
        bad = bytearray(enc.stream)
        bad[positions_at:positions_at + 4] = np.float32(value).tobytes()
        with pytest.raises(StreamFormatError, match=f"frame {frame}: relocation positions must "
                                                    f"be finite"):
            decode_session(base, bytes(bad))


class ShuffledSource:
    """Another source's observations, each frame's rows in a random order."""

    def __init__(self, source, seed):
        self.source, self.frame_count = source, source.frame_count
        self.rng = np.random.default_rng(seed)

    def correspondences(self, frame):
        corr = self.source.correspondences(frame)
        order = self.rng.permutation(len(corr))
        return Correspondences(corr.indices[order], corr.targets[order])


def test_a_source_with_shuffled_indices_writes_ascending_records_and_mirrors():
    base, source = session_inputs(small_arm(point_scale=0.5))
    config = StreamConfig(reconfig_period=3, phase1_steps=10, densify_threshold=0.01)
    enc = encode_session(base, ShuffledSource(source, 8), config)
    records = [p.deltas.relocation_ordinals for p, _ in stream_payloads(enc.stream)]
    assert sum(len(r) > 1 for r in records) >= 2
    assert all((np.diff(r) > 0).all() for r in records)
    assert_mirrored(enc, decode_session(base, enc.stream))


def test_huge_level_ratio_in_the_header_sizes_every_grid_for_n():
    # four levels at ratio 2**31 would aim the finest grid at 2**93 cells,
    # past what int64 cell codes hold; every target clamps to N instead
    base, source = session_inputs(small_arm(frames=4))
    enc = encode_session(base, source, StreamConfig(levels=4, phase1_steps=5))
    bad = bytearray(enc.stream)
    bad[9:13] = np.uint32(2**31).tobytes()  # the level ratio
    with pytest.raises(StreamFormatError, match="frame 1: level 2 has"):
        decode_session(base, bytes(bad))
    dec = decode_session(base, bytes(bad[:codec.HEADER_BYTES]))
    assert validate_state(dec.state) == []
    assert [lvl.grid_resolution for lvl in dec.state.hierarchy.levels] == \
        [1] + [grid_resolution(len(base))] * 3


def test_encode_needs_two_frames():
    base, _ = session_inputs(small_arm(frames=2))
    with pytest.raises(ConfigError, match="at least 2 frames"):
        encode_session(base, StaticSource(base, 1), StreamConfig())


@pytest.mark.parametrize("mode, make_spec", [
    (CompositionMode.pivot, two_body_arm_spec),
    (CompositionMode.additive, drifting_pair_spec),
], ids=["pivot", "additive"])
def test_accuracy_holds_across_reconfiguration(mode, make_spec):
    # frames 3 and 6 start from deltas inherited across a rebuild
    base, source = session_inputs(make_spec(frames=7))
    config = StreamConfig(reconfig_period=3, composition_mode=mode)
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
    expected = {row.frame_index: write_gaussian_ply(state.gaussians)
                for row, state in iter_decode_metrics(base, stream)}
    capsys.readouterr()

    calls = count_decoded_frames(monkeypatch)
    # the mode and the level ratio come from the stream header
    assert main(["decode", "--stream", str(stream_path), "--frame0", str(spec_path),
                 "--output-dir", str(out_dir), "--export-every", "2"]) == 0
    assert len(calls) == len(expected) == 6
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "frame_0002.ply", "frame_0004.ply", "frame_0006.ply"]
    for frame in (2, 4, 6):
        assert (out_dir / f"frame_{frame:04d}.ply").read_bytes() == expected[frame]
    assert "decoded 6 frames" in capsys.readouterr().out


@pytest.mark.parametrize("flags, message", [
    (["--output-dir", "ply"], "--output-dir alone exports nothing"),
    (["--export-every", "2"], "--export-every 2 alone exports nothing"),
    (["--output-dir", "ply", "--export-every", "-2"], "--export-every must be >= 0, got -2"),
], ids=["output_dir_only", "export_every_only", "negative_export_every"])
def test_cli_decode_export_flags_need_each_other(tmp_path, capsys, flags, message):
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "arm.rcgs"
    write_spec(spec_path, small_arm(frames=3))
    assert main(["encode", "--input", str(spec_path), "--output", str(stream_path),
                 "--phase1-steps", "1"]) == 0
    capsys.readouterr()
    flags = [str(tmp_path / f) if f == "ply" else f for f in flags]
    assert main(["decode", "--stream", str(stream_path), "--frame0", str(spec_path),
                 *flags]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ply").exists()


def test_cli_decode_metrics_repeat_the_encoders_bytes_and_checksums(tmp_path, capsys):
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "arm.rcgs"
    enc_csv, dec_csv = tmp_path / "enc.csv", tmp_path / "dec.csv"
    write_spec(spec_path, small_arm(point_scale=0.5))
    assert main(["encode", "--input", str(spec_path), "--output", str(stream_path),
                 "--metrics", str(enc_csv), "--reconfig-period", "3", "--phase1-steps", "20",
                 "--densify-threshold", "0.01"]) == 0
    assert main(["decode", "--stream", str(stream_path), "--frame0", str(spec_path),
                 "--metrics", str(dec_csv)]) == 0
    enc_rows, dec_rows = csv_rows(enc_csv), csv_rows(dec_csv)
    assert len(dec_rows) == len(enc_rows) == 6
    assert list(dec_rows[0]) == list(enc_rows[0])  # the same columns
    for e, d in zip(enc_rows, dec_rows):
        for column in e:
            if column in ("loss", "mean_error"):
                assert d[column] == "nan" and math.isfinite(float(e[column]))
            else:
                assert d[column] == e[column], column
    assert len({row["bytes"] for row in dec_rows}) > 1  # relocating frames differ in size
    for row in dec_rows:
        assert int(row["bytes"]) == sum(
            int(row[column]) for column in ("delta_bytes", "relocation_bytes", "overhead_bytes"))
    assert any(int(row["relocation_bytes"]) for row in dec_rows)
    assert sum(int(row["bytes"]) for row in dec_rows) == (
        len(stream_path.read_bytes()) - codec.HEADER_BYTES)
    assert f"final checksum: {dec_rows[-1]['checksum']}" in capsys.readouterr().out


def test_cli_config_defaults_are_the_stream_config_defaults():
    args = cli.build_parser().parse_args(["encode", "--input", "x.json", "--output", "x.rcgs"])
    assert cli._config_from_args(args) == StreamConfig()


def test_cli_decode_imports_no_private_name():
    tree = ast.parse(inspect.getsource(cli))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert "iter_decode_metrics" in imported
    assert not [name for name in imported if name.startswith("_")]


def test_cli_rejects_a_header_only_stream(tmp_path, capsys):
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "empty.rcgs"
    spec = small_arm(frames=2)
    write_spec(spec_path, spec)
    base, source = session_inputs(spec)
    enc = encode_session(base, source, StreamConfig(phase1_steps=5))
    stream_path.write_bytes(enc.stream[:codec.HEADER_BYTES])
    assert main(["decode", "--stream", str(stream_path), "--frame0", str(spec_path)]) == 1
    assert "no frames" in capsys.readouterr().err


def empty_frame0_stream():
    """A header that counts no gaussian at frame 0, which no encoder writes."""
    return codec.StreamHeader(StreamConfig(), 0).pack()


def test_a_header_with_no_frame0_gaussian_is_a_stream_error():
    empty = GaussianSet.from_positions(np.zeros((0, 3), np.float32))
    with pytest.raises(StreamFormatError, match="frame-0 gaussian count is zero"):
        decode_session(empty, empty_frame0_stream())


def test_cli_decode_of_a_header_with_no_frame0_gaussian_exits_1(tmp_path, capsys):
    ply_path, stream_path = tmp_path / "empty.ply", tmp_path / "empty.rcgs"
    ply_path.write_bytes(write_gaussian_ply(GaussianSet.from_positions(np.zeros((0, 3)))))
    stream_path.write_bytes(empty_frame0_stream())
    assert main(["decode", "--stream", str(stream_path), "--frame0", str(ply_path)]) == 1
    assert "frame-0 gaussian count is zero" in capsys.readouterr().err


def test_cli_rejects_a_bad_header_field_with_exit_1(tmp_path, capsys):
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "bad.rcgs"
    spec = small_arm(frames=2)
    write_spec(spec_path, spec)
    base, source = session_inputs(spec)
    stream = bytearray(encode_session(base, source, StreamConfig(phase1_steps=5)).stream)
    stream[7] = 9  # the quantization byte
    stream_path.write_bytes(bytes(stream))
    assert main(["decode", "--stream", str(stream_path), "--frame0", str(spec_path)]) == 1
    assert "bad stream header" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decode", "inspect"])
def test_cli_rejects_a_v3_stream_with_exit_1(tmp_path, capsys, command):
    # v3 frames have today's layout, but a v3 record appends a gaussian
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "v3.rcgs"
    spec = small_arm(frames=3)
    write_spec(spec_path, spec)
    base, source = session_inputs(spec)
    stream = bytearray(encode_session(base, source, StreamConfig(phase1_steps=5)).stream)
    stream[4:6] = struct.pack("<H", 3)
    stream_path.write_bytes(bytes(stream))
    args = ["--stream", str(stream_path)] + (["--frame0", str(spec_path)]
                                             if command == "decode" else [])
    assert main([command, *args]) == 1
    assert "unsupported stream version 3, expected 4" in capsys.readouterr().err


def test_cli_encode_of_one_frame_is_a_config_error(tmp_path, capsys):
    ply_path, stream_path = tmp_path / "cloud.ply", tmp_path / "out.rcgs"
    ply_path.write_bytes(write_gaussian_ply(session_inputs(small_arm(frames=2))[0]))
    assert main(["encode", "--input", str(ply_path), "--output", str(stream_path),
                 "--frames", "1"]) == 2
    assert "at least 2 frames" in capsys.readouterr().err
    assert not stream_path.exists()


@pytest.mark.parametrize("budget", [[], ["--budget", "600"]], ids=["unplanned", "budget"])
def test_cli_encode_of_an_empty_ply_is_a_config_error(tmp_path, capsys, budget):
    ply_path, stream_path = tmp_path / "empty.ply", tmp_path / "out.rcgs"
    ply_path.write_bytes(write_gaussian_ply(GaussianSet.from_positions(np.zeros((0, 3)))))
    assert main(["encode", "--input", str(ply_path), "--output", str(stream_path),
                 *budget]) == 2
    assert "source has 10 frames and 0 gaussians at frame 0" in capsys.readouterr().err
    assert not stream_path.exists()


def test_cli_encode_prints_the_caps_of_the_planned_header(tmp_path, capsys):
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "arm.rcgs"
    spec = small_arm(frames=2)
    write_spec(spec_path, spec)
    assert main(["encode", "--input", str(spec_path), "--output", str(stream_path),
                 "--mode", "pivot", "--phase1-steps", "5", "--budget", "600"]) == 0
    header = codec.StreamHeader.unpack(stream_path.read_bytes())
    # the budget binds: finest 9 of a possible 13 (see the budget-path mirror test)
    assert header.config.finest_fraction * header.gaussian_count_initial == 9
    assert ("planned per-level anchor caps (coarse->fine): (1, 8, 27)"
            in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("command", ["decode", "inspect"])
def test_cli_rejects_frames_out_of_order_with_exit_1(tmp_path, capsys, command):
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "swapped.rcgs"
    spec = small_arm(frames=4)
    write_spec(spec_path, spec)
    base, source = session_inputs(spec)
    stream = encode_session(base, source, StreamConfig(phase1_steps=5)).stream
    starts = [codec.HEADER_BYTES] + [end for _, end in stream_payloads(stream)]
    frames = [stream[a:b] for a, b in zip(starts, starts[1:])]
    # frames 2, 1, 3
    stream_path.write_bytes(stream[:codec.HEADER_BYTES] + frames[1] + frames[0] + frames[2])
    args = ["--stream", str(stream_path)] + (["--frame0", str(spec_path)]
                                             if command == "decode" else [])
    assert main([command, *args]) == 1
    assert "frame index 2 out of order, expected 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_cli_rejects_a_ply_with_a_non_finite_value_with_exit_1(tmp_path, capsys, command):
    ply_path, stream_path = tmp_path / "cloud.ply", tmp_path / "out.rcgs"
    base = session_inputs(small_arm(frames=2))[0]
    base.positions[3, 1] = np.nan
    data = write_gaussian_ply(base)
    ply_path.write_bytes(data)
    record_offset = len(data) - (len(base) - 3) * 23 * 4
    if command == "encode":
        args = ["encode", "--input", str(ply_path), "--output", str(stream_path)]
    else:
        stream_path.write_bytes(b"")
        args = ["decode", "--stream", str(stream_path), "--frame0", str(ply_path)]
    assert main(args) == 1
    assert f"record 3 holds a non-finite value (byte offset {record_offset})" in (
        capsys.readouterr().err)


def test_cli_rejects_a_scene_spec_with_an_infinite_velocity_with_exit_2(tmp_path, capsys):
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "arm.rcgs"
    spec = small_arm(frames=3)
    spec.bodies[0].velocity = np.array([np.inf, 0.0, 0.0])
    write_spec(spec_path, spec)
    assert "Infinity" in spec_path.read_text()
    assert main(["encode", "--input", str(spec_path), "--output", str(stream_path)]) == 2
    assert "velocity must be 3 finite numbers" in capsys.readouterr().err
    assert not stream_path.exists()


@pytest.mark.parametrize("field, value, frame", [("center", 1e300, 0), ("velocity", 3e38, 2)])
def test_cli_rejects_a_scene_spec_that_leaves_float32_range_with_exit_2(tmp_path, capsys,
                                                                         field, value, frame):
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "arm.rcgs"
    spec = small_arm(frames=4)
    setattr(spec.bodies[0], field, np.array([value, 0.0, 0.0]))
    write_spec(spec_path, spec)
    assert main(["encode", "--input", str(spec_path), "--output", str(stream_path)]) == 2
    assert f"frame {frame} positions leave the float32 range" in capsys.readouterr().err
    assert not stream_path.exists()


@pytest.mark.parametrize("mode", ["additive", "pivot"])
def test_cli_encodes_a_frame_whose_fit_would_leave_float32_range(tmp_path, capsys, mode):
    # every frame is finite in float32, but the frame-1 motion of -6e38 is not:
    # the fit drops that sweep and densification relocates the gaussians
    spec_path, stream_path = tmp_path / "far.json", tmp_path / "far.rcgs"
    enc_csv, dec_csv = tmp_path / "enc.csv", tmp_path / "dec.csv"
    body = BodySpec(point_count=50, extent=np.ones(3), center=np.array([3e38, 0.0, 0.0]),
                    velocity=np.array([-6e38, 0.0, 0.0]))
    write_spec(spec_path, SceneSpec(bodies=[body], frames=2, seed=1))
    assert main(["encode", "--input", str(spec_path), "--output", str(stream_path),
                 "--mode", mode, "--metrics", str(enc_csv)]) == 0
    assert main(["decode", "--stream", str(stream_path), "--frame0", str(spec_path),
                 "--metrics", str(dec_csv)]) == 0
    capsys.readouterr()
    (enc,), (dec,) = csv_rows(enc_csv), csv_rows(dec_csv)
    assert float(enc["mean_error"]) == 0.0
    assert int(enc["relocation_bytes"]) == 50 * codec.RELOCATION_BYTES
    assert dec["checksum"] == enc["checksum"]


def test_cli_encode_has_no_seed_flag(tmp_path, capsys):
    # a seed the decoder's --frame0 cannot name would draw another frame 0
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "arm.rcgs"
    write_spec(spec_path, small_arm(frames=3))
    with pytest.raises(SystemExit) as done:
        main(["encode", "--input", str(spec_path), "--output", str(stream_path), "--seed", "5"])
    assert done.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not stream_path.exists()


def test_cli_encode_frames_overrides_the_spec_frame_count(tmp_path, capsys):
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "arm.rcgs"
    write_spec(spec_path, small_arm(frames=4))
    assert main(["encode", "--input", str(spec_path), "--output", str(stream_path),
                 "--frames", "2", "--phase1-steps", "5"]) == 0
    capsys.readouterr()
    assert main(["inspect", "--stream", str(stream_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    assert [int(row.split()[0]) for row in rows] == [1]


def test_cli_inspect_byte_column_accounts_for_the_stream(tmp_path, capsys):
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "arm.rcgs"
    dec_csv = tmp_path / "dec.csv"
    spec = small_arm(point_scale=0.5)
    write_spec(spec_path, spec)
    assert main(["encode", "--input", str(spec_path), "--output", str(stream_path),
                 "--reconfig-period", "3", "--phase1-steps", "20",
                 "--densify-threshold", "0.01"]) == 0
    capsys.readouterr()
    assert main(["inspect", "--stream", str(stream_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "mode=additive level_ratio=3" in lines[0]
    assert lines[2].split()[:5] == ["frame", "bytes", "delta_bytes", "relocation_bytes",
                                    "overhead_bytes"]
    rows = lines[3:]  # two header lines, then column names
    byte_column = [int(row.split()[1]) for row in rows]
    stream = stream_path.read_bytes()
    assert sum(byte_column) == len(stream) - codec.HEADER_BYTES
    base = session_inputs(spec)[0]
    dec = decode_session(base, stream)
    assert byte_column == [m.payload_bytes for m in dec.metrics]
    assert len(set(byte_column)) > 1  # relocating frames differ in size
    # the split sums to the bytes column and repeats the decoder's metrics CSV
    split = [[int(v) for v in row.split()[1:5]] for row in rows]
    assert all(total == delta + moved + overhead for total, delta, moved, overhead in split)
    assert any(moved for _, _, moved, _ in split)
    assert main(["decode", "--stream", str(stream_path), "--frame0", str(spec_path),
                 "--metrics", str(dec_csv)]) == 0
    columns = ("bytes", "delta_bytes", "relocation_bytes", "overhead_bytes")
    assert split == [[int(row[c]) for c in columns] for row in csv_rows(dec_csv)]
    # the relocations column counts the records; the reconfig column is the header's schedule
    assert [int(row.split()[-2]) for row in rows] == [
        m.relocation_bytes // codec.RELOCATION_BYTES for m in dec.metrics]
    assert len(dec.state.gaussians) == len(base)
    assert [int(row.split()[-1]) for row in rows] == [
        int(m.frame_index % 3 == 0) for m in dec.metrics] == [0, 0, 1, 0, 0, 1]


def test_cli_bench_reports_an_infeasible_budget_and_keeps_the_feasible_one(tmp_path, capsys):
    spec_path = tmp_path / "arm.json"
    write_spec(spec_path, small_arm(frames=3))
    code = main(["bench", "--spec", str(spec_path), "--budgets", "600,239",
                 "--phase1-steps", "5"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "FAILED levels=3 budget=239" in err and "minimum feasible 240" in err
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [row[:2] for row in rows] == [["3", "600"]]


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_cli_encode_rejects_a_non_finite_densify_threshold(tmp_path, capsys, threshold):
    spec_path, stream_path = tmp_path / "arm.json", tmp_path / "arm.rcgs"
    write_spec(spec_path, small_arm(frames=3))
    assert main(["encode", "--input", str(spec_path), "--output", str(stream_path),
                 "--densify-threshold", threshold]) == 2
    assert "densify_threshold must be finite" in capsys.readouterr().err
    assert not stream_path.exists()


@pytest.mark.parametrize("flag, value, bad", [("--budgets", "abc", "'abc'"),
                                              ("--levels-sweep", "2,x", "'x'")])
def test_cli_bench_names_a_bad_list_item(tmp_path, capsys, flag, value, bad):
    spec_path = tmp_path / "arm.json"
    write_spec(spec_path, small_arm(frames=3))
    assert main(["bench", "--spec", str(spec_path), flag, value, "--phase1-steps", "1"]) == 2
    assert f"{flag}: {bad} is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encode", "bench"])
def test_cli_has_no_optimizer_flags(capsys, command):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    text = capsys.readouterr().out
    assert "--phase1-steps" in text
    for flag in ("--learning-rate", "--momentum", "--coarse-to-fine"):
        assert flag not in text


@pytest.mark.parametrize("log_scale", [100.0, -200.0])
def test_ply_rejects_a_scale_outside_float32_range(log_scale):
    data = bytearray(write_gaussian_ply(GaussianSet.from_positions(np.zeros((4, 3), np.float32))))
    body = len(data) - 4 * 23 * 4
    struct.pack_into("<f", data, body + 2 * 23 * 4 + 4 * 4, log_scale)  # record 2, scale_1
    with pytest.raises(PlyParseError, match=f"record 2 has a log-scale outside float32 range "
                                            rf"\(byte offset {body + 2 * 23 * 4}\)"):
        read_gaussian_ply(bytes(data))


@pytest.mark.parametrize("count", [-5, -2, -1])
def test_ply_rejects_a_negative_vertex_count(count):
    data = write_gaussian_ply(GaussianSet.from_positions(np.zeros((3, 3), np.float32)))
    bad = data.replace(b"element vertex 3\n", f"element vertex {count}\n".encode())
    with pytest.raises(PlyParseError, match=f"bad vertex count in 'element vertex {count}' "
                                            r"\(byte offset 36\)"):
        read_gaussian_ply(bad)


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
