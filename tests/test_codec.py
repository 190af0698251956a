import itertools
import math
import struct
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from anchorstream import (
    AnchorDeltaSet,
    BudgetError,
    CompositionMode,
    ConfigError,
    FrameDeformation,
    Quantization,
    StreamConfig,
    StreamFormatError,
    build_hierarchy,
    decode_frame,
    encode_frame,
    plan_budget,
    quantize_roundtrip,
    storage_report,
)
from anchorstream import codec
from anchorstream.codec import (
    HEADER_BYTES,
    RELOCATION_BYTES,
    StreamHeader,
    delta_block_bytes,
    frame_overhead_bytes,
    values_per_anchor,
    verify_counts,
)
from anchorstream.hierarchy import level_caps
from anchorstream.session import FrameMetrics

from oracles import cube_root_ceil


def with_finest(cfg, finest, n):
    """``cfg`` aiming its finest level at ``finest`` anchors over ``n`` gaussians."""
    return replace(cfg, finest_fraction=Fraction(finest, n))


def small_hierarchy(rng, n=40, levels=1, anchors=4):
    pos = rng.random((n, 3), dtype=np.float32)
    h = build_hierarchy(pos, with_finest(StreamConfig(levels=levels), anchors, n))
    return pos, h


def make_header(levels, quantization, count, mode=CompositionMode.pivot, den=10):
    return StreamHeader(StreamConfig(levels=levels, finest_fraction=Fraction(1, den),
                                     level_ratio=3, reconfig_period=10, quantization=quantization,
                                     composition_mode=mode), count)


def random_deformation(h, rng, scale=0.5, added=0, mode=CompositionMode.pivot):
    """Random deltas and ``added`` relocation records of distinct gaussians, in
    ascending ordinal order; additive deltas have zero rotations, as the fit
    leaves them."""
    rot_scale = scale if mode == CompositionMode.pivot else 0.0
    per_level = [
        AnchorDeltaSet(
            (rng.standard_normal((lvl.anchor_count, 3)) * scale).astype(np.float32),
            (rng.standard_normal((lvl.anchor_count, 4)) * rot_scale).astype(np.float32),
        )
        for lvl in h.levels
    ]
    n = len(h.levels[0].assignment)
    return FrameDeformation(per_level, np.sort(rng.choice(n, added, replace=False)),
                            rng.random((added, 3), dtype=np.float32))


# ---------------------------------------------------------------------------
# header
# ---------------------------------------------------------------------------


def test_header_round_trip():
    """Every decode setting survives the wire; the encoder-only ones do not
    travel, so a parsed header holds their defaults."""
    for quant, mode, levels, ratio, period, fraction in itertools.product(
            Quantization, CompositionMode, range(1, 5), (1, 3, 2**32 - 1), (1, 10, 2**32 - 1),
            (Fraction(1, 24), Fraction(7, 1000), Fraction(1))):
        wire = dict(levels=levels, finest_fraction=fraction, level_ratio=ratio,
                    reconfig_period=period, quantization=quant, composition_mode=mode)
        h = StreamHeader(StreamConfig(**wire, phase1_steps=3, phase2_steps=0,
                                      densify_threshold=0.5), 2**64 - 1)
        raw = h.pack()
        again = StreamHeader.unpack(raw)
        assert again.config == StreamConfig(**wire)
        assert again.gaussian_count_initial == 2**64 - 1
        assert again.pack() == raw
        assert len(raw) == HEADER_BYTES == 33


def test_header_packs_to_the_v4_layout():
    config = StreamConfig(levels=2, finest_fraction=Fraction(3, 50), level_ratio=5,
                          reconfig_period=7, quantization=Quantization.fixed16,
                          composition_mode=CompositionMode.pivot, phase1_steps=9)
    assert StreamHeader(config, 123_456).pack() == struct.pack(
        "<4sHBBBIIIIQ", b"RCGS", 4, 2, 2, 1, 5, 7, 3, 50, 123_456)
    assert StreamHeader(StreamConfig(), 1000).pack() == struct.pack(
        "<4sHBBBIIIIQ", b"RCGS", 4, 3, 1, 0, 3, 10, 1, 24, 1000)


def test_header_bad_magic():
    h = make_header(3, Quantization.full32, 10, den=24)
    raw = bytearray(h.pack())
    raw[0] = ord("X")
    with pytest.raises(StreamFormatError, match="magic"):
        StreamHeader.unpack(bytes(raw))


def test_header_bad_version():
    raw = bytearray(make_header(3, Quantization.full32, 10, den=24).pack())
    raw[4] = 99
    with pytest.raises(StreamFormatError, match="version"):
        StreamHeader.unpack(bytes(raw))


def test_version_1_header_is_rejected():
    old_headers = {
        # the 28-byte v1 layout: magic, version, levels, quantization, period,
        # finest fraction, initial count
        1: struct.pack("<4sHBBIIIQ", b"RCGS", 1, 3, 1, 10, 1, 24, 1000),
        # v2 had today's 33-byte header; its frames held 92 B clone records
        # and a reconfig flag
        2: struct.pack("<4sHBBBIIIIQ", b"RCGS", 2, 3, 1, 0, 3, 10, 1, 24, 1000),
        # v3 had today's header and frames, but its 16 B records appended a
        # copy of the named gaussian instead of moving it
        3: struct.pack("<4sHBBBIIIIQ", b"RCGS", 3, 3, 1, 0, 3, 10, 1, 24, 1000),
    }
    for version, header in old_headers.items():
        with pytest.raises(StreamFormatError, match=f"unsupported stream version {version}"):
            StreamHeader.unpack(header + bytes(64))
        with pytest.raises(StreamFormatError, match=f"unsupported stream version {version}"):
            StreamHeader.unpack(header)


# byte offsets of the header fields
_FIELDS = {"levels": ("<B", 6), "quantization": ("<B", 7), "composition_mode": ("<B", 8),
           "level_ratio": ("<I", 9), "reconfig_period": ("<I", 13), "finest_num": ("<I", 17),
           "finest_den": ("<I", 21)}


def patched_header(**fields):
    raw = bytearray(make_header(3, Quantization.half16, 1000, den=24).pack())
    for name, value in fields.items():
        fmt, offset = _FIELDS[name]
        struct.pack_into(fmt, raw, offset, value)
    return bytes(raw)


@pytest.mark.parametrize("fields", [
    {"quantization": 9},
    {"composition_mode": 2},
    {"levels": 0},
    {"levels": 5},
    {"levels": 7},
    {"level_ratio": 0},
    {"reconfig_period": 0},
    {"finest_num": 0},
    {"finest_num": 625, "finest_den": 3},
    {"finest_den": 0},
], ids=lambda f: ",".join(f"{k}={v}" for k, v in f.items()))
def test_bad_header_field_is_a_stream_error(fields):
    with pytest.raises(StreamFormatError, match="bad stream header"):
        StreamHeader.unpack(patched_header(**fields))


def test_header_field_offsets_match_the_layout():
    c = StreamHeader.unpack(patched_header(levels=2, quantization=2, composition_mode=1,
                                           level_ratio=5, reconfig_period=7, finest_num=2,
                                           finest_den=9)).config
    assert (c.levels, c.quantization, c.composition_mode, c.level_ratio, c.reconfig_period,
            c.finest_fraction) == (2, Quantization.fixed16, CompositionMode.pivot, 5, 7,
                                   Fraction(2, 9))


# ---------------------------------------------------------------------------
# frame encode/decode
# ---------------------------------------------------------------------------


def test_zero_delta_block_sizes(rng):
    # 40 points piled into exactly 4 grid cells (z degenerate) -> 4 anchors
    corners = np.float32([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    pos = np.repeat(corners, 10, axis=0)
    pos[:, :2] += rng.random((40, 2), dtype=np.float32) * 0.05
    h = build_hierarchy(pos, with_finest(StreamConfig(levels=1), 4, 40))
    assert h.anchor_counts() == (4,)
    pivot, additive = CompositionMode.pivot, CompositionMode.additive
    assert delta_block_bytes(h.anchor_counts(), Quantization.full32, pivot) == 112
    assert delta_block_bytes(h.anchor_counts(), Quantization.half16, pivot) == 56
    assert delta_block_bytes(h.anchor_counts(), Quantization.full32, additive) == 48
    assert delta_block_bytes(h.anchor_counts(), Quantization.half16, additive) == 24
    assert delta_block_bytes(h.anchor_counts(), Quantization.fixed16, additive) == 24 + 3 * 8
    for mode in CompositionMode:
        header = make_header(1, Quantization.full32, 40, mode)
        payload = encode_frame(1, FrameDeformation.zeros(h), h, header)
        # frame_index + counts + delta block + relocation count
        assert len(payload) == 8 + 4 + 4 * values_per_anchor(mode) * 4 + 4
        decoded, end = decode_frame(payload, 0, header)
        assert end == len(payload)
        assert decoded.frame_index == 1
        for ds in decoded.deltas.per_level:
            assert not ds.translations.any() and not ds.rotations.any()


def test_full32_round_trip_bit_exact(rng):
    for levels in (1, 2, 3):
        pos, h = small_hierarchy(rng, n=100, levels=levels, anchors=9)
        header = make_header(levels, Quantization.full32, 100)
        deltas = random_deformation(h, rng, added=3)
        payload = encode_frame(7, deltas, h, header)
        decoded, _ = decode_frame(payload, 0, header)
        assert decoded.frame_index == 7
        assert decoded.realized_counts == h.anchor_counts()
        for got, want in zip(decoded.deltas.per_level, deltas.per_level):
            assert np.array_equal(got.translations, want.translations)
            assert np.array_equal(got.rotations, want.rotations)
        assert np.array_equal(decoded.deltas.relocation_ordinals, deltas.relocation_ordinals)
        assert np.array_equal(decoded.deltas.relocation_positions,
                              deltas.relocation_positions)
        # the frame ends with the ordinals, then the positions: 16 B per record
        assert payload[-48:] == (deltas.relocation_ordinals.astype("<u4").tobytes()
                                 + deltas.relocation_positions.astype("<f4").tobytes())


def test_half16_round_trip_matches_float16(rng):
    pos, h = small_hierarchy(rng, anchors=8)
    deltas = random_deformation(h, rng)
    rt = quantize_roundtrip(deltas, make_header(1, Quantization.half16, 40))
    for got, want in zip(rt.per_level, deltas.per_level):
        assert np.array_equal(got.translations,
                              want.translations.astype(np.float16).astype(np.float32))
        assert np.array_equal(got.rotations,
                              want.rotations.astype(np.float16).astype(np.float32))


def test_fixed16_error_bound():
    rng = np.random.default_rng(5)
    pos, h = small_hierarchy(rng, n=300, levels=2, anchors=20)
    header = make_header(2, Quantization.fixed16, 300)
    deltas = random_deformation(h, rng, scale=1.7)
    payload = encode_frame(1, deltas, h, header)
    decoded, _ = decode_frame(payload, 0, header)
    for got, want in zip(decoded.deltas.per_level, deltas.per_level):
        for col in range(3):
            x = want.translations[:, col].astype(np.float64)
            step = (x.max() - x.min()) / 65535.0
            bound = step / 2 + np.spacing(np.abs(x).max() + step)
            assert np.abs(got.translations[:, col] - x).max() <= bound
        for col in range(4):
            x = want.rotations[:, col].astype(np.float64)
            step = (x.max() - x.min()) / 65535.0
            bound = step / 2 + np.spacing(np.abs(x).max() + step)
            assert np.abs(got.rotations[:, col] - x).max() <= bound


def test_fixed16_constant_block():
    rng = np.random.default_rng(2)
    _, h = small_hierarchy(rng, anchors=5)
    const = FrameDeformation(
        [AnchorDeltaSet(np.full((h.anchor_counts()[0], 3), 0.75, np.float32),
                        np.full((h.anchor_counts()[0], 4), -1.25, np.float32))]
    )
    rt = quantize_roundtrip(const, make_header(1, Quantization.fixed16, 40))
    assert np.array_equal(rt.per_level[0].translations, const.per_level[0].translations)
    assert np.array_equal(rt.per_level[0].rotations, const.per_level[0].rotations)


# float32 values a copy keeps and a careless round trip could lose: signed
# zero, subnormals and the largest finite magnitudes
F32_EDGES = np.array([-0.0, np.finfo(np.float32).smallest_subnormal, -1e-40,
                      np.finfo(np.float32).max, -np.finfo(np.float32).max], np.float32)


def test_quantize_roundtrip_matches_decode(rng):
    for quant in Quantization:
        for mode in CompositionMode:
            pos, h = small_hierarchy(rng, n=200, levels=2, anchors=12)
            header = make_header(2, quant, 200, mode)
            deltas = random_deformation(h, rng, mode=mode)
            if quant == Quantization.full32:  # the other widths cannot hold max float32
                finest = deltas.per_level[-1]
                finest.translations.flat[:F32_EDGES.size] = F32_EDGES
                if mode == CompositionMode.pivot:
                    finest.rotations.flat[-F32_EDGES.size:] = F32_EDGES
            if mode == CompositionMode.additive:  # zero, but not the +0.0 a decoder restores
                deltas.per_level[0].rotations[0, 0] = -0.0
            payload = encode_frame(1, deltas, h, header)
            decoded, _ = decode_frame(payload, 0, header)
            rt = quantize_roundtrip(deltas, header)
            for a, b, sent in zip(decoded.deltas.per_level, rt.per_level, deltas.per_level):
                assert a.translations.tobytes() == b.translations.tobytes()
                assert a.rotations.tobytes() == b.rotations.tobytes()
                if quant == Quantization.full32:  # full32 is the identity, bit for bit
                    assert b.translations.tobytes() == sent.translations.tobytes()
                    if mode == CompositionMode.pivot:
                        assert b.rotations.tobytes() == sent.rotations.tobytes()


def test_payload_length_pure_function(rng):
    for quant in Quantization:
        for mode in CompositionMode:
            for added in (0, 4):
                pos, h = small_hierarchy(rng, n=120, levels=3, anchors=9)
                header = make_header(3, quant, 120, mode)
                deltas = random_deformation(h, rng, added=added, mode=mode)
                payload = encode_frame(3, deltas, h, header)
                split = codec.frame_byte_split(h.anchor_counts(), added, header.config)
                assert split == (delta_block_bytes(h.anchor_counts(), quant, mode),
                                 added * RELOCATION_BYTES, frame_overhead_bytes(3))
                assert len(payload) == sum(split)


def test_additive_payload_carries_three_values_per_anchor(rng):
    pos, h = small_hierarchy(rng, n=120, levels=3, anchors=9)
    counts = h.anchor_counts()
    for quant in Quantization:
        header = make_header(3, quant, 120, CompositionMode.additive)
        payload = encode_frame(2, random_deformation(h, rng, added=1,
                                                     mode=CompositionMode.additive), h, header)
        ranges = 3 * 3 * 8 if quant == Quantization.fixed16 else 0  # per level and component
        assert len(payload) == (
            delta_block_bytes(counts, quant, CompositionMode.additive)
            + frame_overhead_bytes(3) + RELOCATION_BYTES) == (
            frame_overhead_bytes(3) + sum(counts) * 3 * codec.VALUE_BYTES[quant] + ranges + 16)
        decoded, _ = decode_frame(payload, 0, header)
        for ds in decoded.deltas.per_level:
            assert ds.rotations.shape == (len(ds), 4) and not ds.rotations.any()


def test_encode_refuses_a_nonzero_additive_rotation(rng):
    pos, h = small_hierarchy(rng, anchors=6)
    deltas = random_deformation(h, rng, mode=CompositionMode.additive)
    deltas.per_level[0].rotations[2, 1] = 1e-3
    with pytest.raises(ValueError, match="nonzero"):
        encode_frame(1, deltas, h, make_header(1, Quantization.half16, 40,
                                               CompositionMode.additive))
    encode_frame(1, deltas, h, make_header(1, Quantization.half16, 40, CompositionMode.pivot))


def test_truncated_payload_rejected(rng):
    pos, h = small_hierarchy(rng, anchors=6)
    header = make_header(1, Quantization.full32, 40)
    payload = encode_frame(1, random_deformation(h, rng), h, header)
    with pytest.raises(StreamFormatError, match="truncated"):
        decode_frame(payload[:-10], 0, header)


def test_infinite_half16_delta_is_a_stream_error(rng):
    pos, h = small_hierarchy(rng, anchors=6)
    header = make_header(1, Quantization.half16, 40)
    payload = bytearray(encode_frame(5, random_deformation(h, rng), h, header))
    first_value = 8 + 4 * header.config.levels  # after the frame index and the counts
    payload[first_value:first_value + 2] = np.float16(np.inf).tobytes()
    with pytest.raises(StreamFormatError, match="frame 5: anchor deltas must be finite"):
        decode_frame(bytes(payload), 0, header)


@pytest.mark.parametrize("bound, value", [(0, np.inf), (1, np.inf), (0, -np.inf),
                                          (1, np.nan)])
def test_a_fixed16_range_that_is_not_finite_is_a_stream_error(rng, bound, value):
    # a max of +inf would make the dequantization multiply 0 by inf
    pos, h = small_hierarchy(rng, anchors=6)
    header = make_header(1, Quantization.fixed16, 40)
    payload = bytearray(encode_frame(5, random_deformation(h, rng), h, header))
    first_range = 8 + 4 * header.config.levels  # after the frame index and the counts
    at = first_range + 4 * bound
    payload[at:at + 4] = np.float32(value).tobytes()
    with pytest.raises(StreamFormatError, match=r"fixed16 range \(.*\) is not finite"):
        decode_frame(bytes(payload), 0, header)


def test_nonfinite_added_record_is_a_stream_error(rng):
    pos, h = small_hierarchy(rng, anchors=6)
    header = make_header(1, Quantization.full32, 40)
    payload = bytearray(encode_frame(4, random_deformation(h, rng, added=2), h, header))
    # the record count, two gaussian ordinals, then the first position
    c = header.config
    first_position = 8 + 4 * c.levels + delta_block_bytes(
        h.anchor_counts(), c.quantization, c.composition_mode) + 4 + 2 * 4
    payload[first_position:first_position + 4] = np.float32(np.inf).tobytes()
    with pytest.raises(StreamFormatError, match="frame 4: relocation positions must be finite"):
        decode_frame(bytes(payload), 0, header)


def test_count_mismatch_names_level(rng):
    pos, h = small_hierarchy(rng, n=100, levels=2, anchors=9)
    header = make_header(2, Quantization.full32, 100)
    payload = encode_frame(1, random_deformation(h, rng), h, header)
    decoded, _ = decode_frame(payload, 0, header)
    other = build_hierarchy(pos * 2 + 5, with_finest(StreamConfig(levels=2), 4, 100))
    if other.anchor_counts() != h.anchor_counts():
        with pytest.raises(StreamFormatError, match="level"):
            verify_counts(decoded, other)


def test_nonfinite_delta_rejected():
    with pytest.raises(ValueError):
        AnchorDeltaSet(np.full((4, 3), np.nan, np.float32), np.zeros((4, 4), np.float32))
    with pytest.raises(ValueError, match="relocation positions must be finite"):
        FrameDeformation([AnchorDeltaSet.zeros(4)], [0], np.float32([[np.inf, 0, 0]]))
    with pytest.raises(ValueError, match="relocation ordinals must be non-negative"):
        FrameDeformation([AnchorDeltaSet.zeros(4)], [-1], np.zeros((1, 3), np.float32))


@pytest.mark.parametrize("ordinals", [[3, 3], [5, 2], [0, 4, 4, 9]])
def test_relocation_ordinals_must_strictly_increase(ordinals):
    # an advanced assignment that names one gaussian twice keeps whichever
    # write numpy makes last, which numpy does not specify
    positions = np.zeros((len(ordinals), 3), np.float32)
    with pytest.raises(ValueError, match="relocation ordinals must be strictly increasing"):
        FrameDeformation([AnchorDeltaSet.zeros(4)], ordinals, positions)
    FrameDeformation([AnchorDeltaSet.zeros(4)], sorted(set(ordinals)),
                     positions[:len(set(ordinals))])


# ---------------------------------------------------------------------------
# plan_budget
# ---------------------------------------------------------------------------


def planned_finest(n, budget, cfg):
    """The finest-level anchor target k of the plan, whose fraction is k / n."""
    k = plan_budget(n, budget, cfg).finest_fraction * n
    assert k.denominator == 1
    return int(k)


def test_plan_budget_cap_binds():
    cfg = StreamConfig(levels=3, quantization=Quantization.half16)
    assert planned_finest(216, 10_000_000, cfg) == 9  # ceil(216 / 24)


def test_plan_budget_returns_the_config_with_the_planned_fraction():
    cfg = StreamConfig(levels=3, quantization=Quantization.half16, reconfig_period=5,
                       densify_threshold=0.01)
    plan = plan_budget(100, 10_000_000, cfg)
    # a budget that does not bind still plans ceil(100 / 24) = 5 anchors over 100
    assert plan == replace(cfg, finest_fraction=Fraction(1, 20))
    tight = plan_budget(100_000, 240, replace(cfg, composition_mode=CompositionMode.additive))
    assert tight.finest_fraction == Fraction(9, 100_000)
    assert level_caps(100_000, tight) == (1, 8, 27)


def test_plan_budget_rejects_an_empty_scene():
    with pytest.raises(ConfigError, match="at least one gaussian"):
        plan_budget(0, 10_000, StreamConfig())


def test_plan_budget_worked_example():
    # finest 9 at ratio 3 targets (1, 3, 9): grids 1, 2 and 3 cells a side, so
    # up to 1 + 8 + 27 = 36 anchors of 3 (additive) or 7 (pivot) half16 values,
    # plus the 24 fixed frame bytes
    overhead = frame_overhead_bytes(3)
    assert overhead == 24
    for mode, v in ((CompositionMode.additive, 3), (CompositionMode.pivot, 7)):
        assert values_per_anchor(mode) == v
        cfg = StreamConfig(levels=3, level_ratio=3, quantization=Quantization.half16,
                           composition_mode=mode)
        assert level_caps(100_000, with_finest(cfg, 9, 100_000)) == (1, 8, 27)
        assert planned_finest(100_000, 36 * v * 2 + overhead, cfg) == 9
        # finest 10 needs base 2, targets (2, 6, 18) and caps (8, 8, 27); base 2
        # serves every finest count up to 18
        assert level_caps(100_000, with_finest(cfg, 10, 100_000)) == (8, 8, 27)
        assert planned_finest(100_000, 43 * v * 2 + overhead - 1, cfg) == 9
        assert planned_finest(100_000, 43 * v * 2 + overhead, cfg) == 18


def test_plan_budget_infeasible():
    for mode, minimum in ((CompositionMode.additive, 240), (CompositionMode.pivot, 528)):
        cfg = StreamConfig(levels=3, quantization=Quantization.half16, composition_mode=mode)
        v = values_per_anchor(mode)
        # a budget of the fixed frame bytes alone leaves no room for caps (1, 8, 27)
        with pytest.raises(BudgetError) as exc_info:
            plan_budget(1000, frame_overhead_bytes(3), cfg)
        assert exc_info.value.minimum_bytes == 36 * v * 2 + frame_overhead_bytes(3)
        with pytest.raises(BudgetError) as exc_info:
            plan_budget(1000, minimum - 1, cfg)
        assert exc_info.value.minimum_bytes == minimum == 36 * v * 2 + frame_overhead_bytes(3)
        assert planned_finest(1000, minimum, cfg) == 9


def test_plan_budget_exact_bound_and_monotone():
    for mode, quantization in itertools.product(CompositionMode, Quantization):
        cfg = StreamConfig(levels=3, quantization=quantization, composition_mode=mode)
        v = values_per_anchor(mode)
        w = codec.VALUE_BYTES[quantization]
        # fixed16 adds a (min, max) f32 pair per level and component
        overhead = frame_overhead_bytes(3) + (3 * v * 8 if quantization == Quantization.fixed16
                                              else 0)
        cap = math.ceil(100_000 * cfg.finest_fraction)

        def cost(finest):
            return sum(level_caps(100_000, with_finest(cfg, finest, 100_000))) * v * w + overhead

        prev = None
        for budget in range(150, 40_000, 1385):
            try:
                finest = planned_finest(100_000, budget, cfg)
            except BudgetError:
                continue
            assert cost(finest) <= budget
            # maximality: bumping the finest count must break the bound or the cap
            assert cost(finest + 1) > budget or finest + 1 > cap
            if prev is not None:
                assert finest >= prev
            prev = finest
        assert prev is not None


def test_plan_budget_minimum_verified_brute_force():
    overhead = frame_overhead_bytes(2)
    for mode in CompositionMode:
        cfg = StreamConfig(levels=2, level_ratio=3, quantization=Quantization.full32,
                           composition_mode=mode)
        v = values_per_anchor(mode)

        def cost(finest):  # targets (base, 3 * base); each fills up to m^3 cells
            base = -(-finest // 3)
            return sum(cube_root_ceil(t) ** 3 for t in (base, 3 * base)) * v * 4 + overhead

        brute_min = min(cost(f) for f in range(1, 50))
        with pytest.raises(BudgetError) as exc_info:
            plan_budget(1000, brute_min - 1, cfg)
        assert exc_info.value.minimum_bytes == brute_min
        assert planned_finest(1000, brute_min, cfg) == 3  # base 1 serves finest 1..3
        for budget in range(brute_min, 20_000, 997):
            finest = planned_finest(1000, budget, cfg)
            assert cost(finest) <= budget
            assert budget < cost(finest + 1) or finest == 42  # ceil(1000 / 24)


# ---------------------------------------------------------------------------
# storage report
# ---------------------------------------------------------------------------


def metrics_row(frame, payload_bytes, delta_bytes, relocation_bytes, overhead_bytes, counts):
    return FrameMetrics(frame, math.nan, math.nan, payload_bytes, delta_bytes, relocation_bytes,
                        overhead_bytes, counts, False, "")


def test_storage_report_single_zero_frame(rng):
    _, h = small_hierarchy(rng, anchors=4)
    payload = encode_frame(1, FrameDeformation.zeros(h), h, make_header(1, Quantization.full32, 40))
    counts = h.anchor_counts()
    delta = delta_block_bytes(counts, Quantization.full32, CompositionMode.pivot)
    assert delta == sum(counts) * 7 * 4
    report = storage_report([metrics_row(1, len(payload), delta, 0, frame_overhead_bytes(1),
                                         counts)])
    assert report.delta_bytes == delta and report.relocation_bytes == 0
    assert report.mean_bytes == len(payload) == delta + report.overhead_bytes
    assert f"deltas={delta}B" in report.decomposition()


def test_storage_report_mean_is_total_over_frames():
    rows = [metrics_row(i, 100 + i, 50, 10, 29, (4,)) for i in range(1, 11)]
    report = storage_report(rows)
    assert report.relocation_bytes == 100
    assert "relocations=100B" in report.decomposition()
    assert report.frames == 10
    assert report.mean_bytes == sum(100 + i for i in range(1, 11)) / 10
    assert report.max_bytes == 110


def test_storage_report_requires_frames():
    with pytest.raises(ValueError):
        storage_report([])


def test_deformation_magnitude_at_paper_scale():
    # 350k primitives with default fractions at 16-bit values
    cfg = StreamConfig()
    from anchorstream.hierarchy import level_targets
    counts = level_targets(350_000, cfg)
    block = delta_block_bytes(counts, Quantization.half16, CompositionMode.pivot)
    assert abs(block - 295_000) / 295_000 < 0.01  # ~295 KB/frame
