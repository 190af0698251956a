import math

import numpy as np
import pytest

from anchorstream import (
    AnchorDeltaSet,
    BudgetError,
    FrameDeformation,
    GaussianSet,
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
    FrameStats,
    StreamHeader,
    delta_block_bytes,
    frame_overhead_bytes,
    frame_payload_bytes,
    verify_counts,
)
from anchorstream.hierarchy import level_caps

from oracles import cube_root_ceil


def small_hierarchy(rng, n=40, levels=1, anchors=4):
    pos = rng.random((n, 3), dtype=np.float32)
    h = build_hierarchy(pos, StreamConfig(levels=levels), finest_target=anchors)
    return pos, h


def random_deformation(h, rng, scale=0.5, added=0, pruned=()):
    per_level = [
        AnchorDeltaSet(
            (rng.standard_normal((lvl.anchor_count, 3)) * scale).astype(np.float32),
            (rng.standard_normal((lvl.anchor_count, 4)) * scale).astype(np.float32),
        )
        for lvl in h.levels
    ]
    added_set = GaussianSet.from_positions(rng.random((added, 3), dtype=np.float32)) \
        if added else GaussianSet.empty()
    return FrameDeformation(per_level, added_set, np.array(sorted(pruned), np.int64))


# ---------------------------------------------------------------------------
# header
# ---------------------------------------------------------------------------


def test_header_round_trip():
    h = StreamHeader(3, Quantization.half16, 10, 1, 24, 1000)
    again = StreamHeader.unpack(h.pack())
    assert again == h
    assert len(h.pack()) == HEADER_BYTES == 28


def test_header_bad_magic():
    h = StreamHeader(3, Quantization.full32, 10, 1, 24, 10)
    raw = bytearray(h.pack())
    raw[0] = ord("X")
    with pytest.raises(StreamFormatError, match="magic"):
        StreamHeader.unpack(bytes(raw))


def test_header_bad_version():
    raw = bytearray(StreamHeader(3, Quantization.full32, 10, 1, 24, 10).pack())
    raw[4] = 99
    with pytest.raises(StreamFormatError, match="version"):
        StreamHeader.unpack(bytes(raw))


# ---------------------------------------------------------------------------
# frame encode/decode
# ---------------------------------------------------------------------------


def test_zero_delta_block_sizes(rng):
    # 40 points piled into exactly 4 grid cells (z degenerate) -> 4 anchors
    corners = np.float32([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    pos = np.repeat(corners, 10, axis=0)
    pos[:, :2] += rng.random((40, 2), dtype=np.float32) * 0.05
    h = build_hierarchy(pos, StreamConfig(levels=1), finest_target=4)
    assert h.anchor_counts() == (4,)
    header = StreamHeader(1, Quantization.full32, 10, 1, 10, 40)
    zeros = FrameDeformation.zeros(h)
    payload = encode_frame(1, zeros, h, Quantization.full32)
    # frame_index + counts + delta block + added_count + pruned_count + flag
    assert len(payload) == 8 + 4 + 4 * 7 * 4 + 4 + 4 + 1
    assert delta_block_bytes(h.anchor_counts(), Quantization.full32) == 112
    assert delta_block_bytes(h.anchor_counts(), Quantization.half16) == 56
    decoded, end = decode_frame(payload, 0, header)
    assert end == len(payload)
    assert decoded.frame_index == 1
    for ds in decoded.deltas.per_level:
        assert not ds.translations.any() and not ds.rotations.any()


def test_full32_round_trip_bit_exact(rng):
    for levels in (1, 2, 3):
        pos, h = small_hierarchy(rng, n=100, levels=levels, anchors=9)
        header = StreamHeader(levels, Quantization.full32, 10, 1, 10, 100)
        deltas = random_deformation(h, rng, added=3, pruned=(2, 5, 50))
        payload = encode_frame(7, deltas, h, Quantization.full32, reconfig=True)
        decoded, _ = decode_frame(payload, 0, header)
        assert decoded.reconfig is True
        assert decoded.frame_index == 7
        assert decoded.realized_counts == h.anchor_counts()
        for got, want in zip(decoded.deltas.per_level, deltas.per_level):
            assert np.array_equal(got.translations, want.translations)
            assert np.array_equal(got.rotations, want.rotations)
        assert np.array_equal(decoded.deltas.pruned_indices, deltas.pruned_indices)
        for got, want in zip(decoded.deltas.added_gaussians.attribute_arrays(),
                             deltas.added_gaussians.attribute_arrays()):
            assert np.array_equal(got, want)


def test_half16_round_trip_matches_float16(rng):
    pos, h = small_hierarchy(rng, anchors=8)
    deltas = random_deformation(h, rng)
    rt = quantize_roundtrip(deltas, Quantization.half16)
    for got, want in zip(rt.per_level, deltas.per_level):
        assert np.array_equal(got.translations,
                              want.translations.astype(np.float16).astype(np.float32))
        assert np.array_equal(got.rotations,
                              want.rotations.astype(np.float16).astype(np.float32))


def test_fixed16_error_bound():
    rng = np.random.default_rng(5)
    pos, h = small_hierarchy(rng, n=300, levels=2, anchors=20)
    header = StreamHeader(2, Quantization.fixed16, 10, 1, 10, 300)
    deltas = random_deformation(h, rng, scale=1.7)
    payload = encode_frame(1, deltas, h, Quantization.fixed16)
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
    rt = quantize_roundtrip(const, Quantization.fixed16)
    assert np.array_equal(rt.per_level[0].translations, const.per_level[0].translations)
    assert np.array_equal(rt.per_level[0].rotations, const.per_level[0].rotations)


def test_quantize_roundtrip_matches_decode(rng):
    for quant in Quantization:
        pos, h = small_hierarchy(rng, n=200, levels=2, anchors=12)
        header = StreamHeader(2, quant, 10, 1, 10, 200)
        deltas = random_deformation(h, rng)
        payload = encode_frame(1, deltas, h, quant)
        decoded, _ = decode_frame(payload, 0, header)
        rt = quantize_roundtrip(deltas, quant)
        for a, b in zip(decoded.deltas.per_level, rt.per_level):
            assert np.array_equal(a.translations, b.translations)
            assert np.array_equal(a.rotations, b.rotations)


def test_payload_length_pure_function(rng):
    for quant in Quantization:
        for added, pruned in ((0, ()), (4, ()), (2, (1, 7))):
            pos, h = small_hierarchy(rng, n=120, levels=3, anchors=9)
            deltas = random_deformation(h, rng, added=added, pruned=pruned)
            payload = encode_frame(3, deltas, h, quant)
            want = frame_payload_bytes(3, quant, h.anchor_counts(), added, len(pruned))
            assert len(payload) == want


def test_truncated_payload_rejected(rng):
    pos, h = small_hierarchy(rng, anchors=6)
    header = StreamHeader(1, Quantization.full32, 10, 1, 10, 40)
    payload = encode_frame(1, random_deformation(h, rng), h, Quantization.full32)
    with pytest.raises(StreamFormatError, match="truncated"):
        decode_frame(payload[:-10], 0, header)


def test_infinite_half16_delta_is_a_stream_error(rng):
    pos, h = small_hierarchy(rng, anchors=6)
    header = StreamHeader(1, Quantization.half16, 10, 1, 10, 40)
    payload = bytearray(encode_frame(5, random_deformation(h, rng), h, Quantization.half16))
    first_value = 8 + 4 * header.levels  # after the frame index and the counts
    payload[first_value:first_value + 2] = np.float16(np.inf).tobytes()
    with pytest.raises(StreamFormatError, match="frame 5: anchor deltas must be finite"):
        decode_frame(bytes(payload), 0, header)


def test_unsorted_pruned_indices_are_a_stream_error(rng):
    pos, h = small_hierarchy(rng, anchors=6)
    header = StreamHeader(1, Quantization.full32, 10, 1, 10, 40)
    payload = encode_frame(7, random_deformation(h, rng, pruned=(3, 9)), h, Quantization.full32)
    tail = len(payload) - 1 - 16  # two u64 indices, then the reconfig flag
    swapped = payload[:tail] + payload[tail + 8:tail + 16] + payload[tail:tail + 8] + payload[-1:]
    with pytest.raises(StreamFormatError, match="frame 7: pruned_indices must be strictly"):
        decode_frame(swapped, 0, header)


def test_nonfinite_added_record_is_a_stream_error(rng):
    pos, h = small_hierarchy(rng, anchors=6)
    header = StreamHeader(1, Quantization.full32, 10, 1, 10, 40)
    payload = bytearray(encode_frame(4, random_deformation(h, rng, added=1), h,
                                     Quantization.full32))
    # the record's position x follows the frame index, the counts, the delta
    # blocks and the added count
    first_record = 8 + 4 * header.levels + delta_block_bytes(h.anchor_counts(),
                                                             Quantization.full32) + 4
    payload[first_record:first_record + 4] = np.float32(np.inf).tobytes()
    with pytest.raises(StreamFormatError, match="frame 4: added gaussian records must be finite"):
        decode_frame(bytes(payload), 0, header)


def test_count_mismatch_names_level(rng):
    pos, h = small_hierarchy(rng, n=100, levels=2, anchors=9)
    header = StreamHeader(2, Quantization.full32, 10, 1, 10, 100)
    payload = encode_frame(1, random_deformation(h, rng), h, Quantization.full32)
    decoded, _ = decode_frame(payload, 0, header)
    other = build_hierarchy(pos * 2 + 5, StreamConfig(levels=2), finest_target=4)
    if other.anchor_counts() != h.anchor_counts():
        with pytest.raises(StreamFormatError, match="level"):
            verify_counts(decoded, other)


def test_nonfinite_delta_rejected(rng):
    pos, h = small_hierarchy(rng, anchors=4)
    bad = FrameDeformation.zeros(h)
    with pytest.raises(ValueError):
        AnchorDeltaSet(np.full((4, 3), np.nan, np.float32), np.zeros((4, 4), np.float32))
    arr = bad.per_level[0].translations
    arr[0, 0] = np.inf  # mutate after construction to hit the encode check
    with pytest.raises(ValueError):
        encode_frame(
            1,
            FrameDeformation(
                [AnchorDeltaSet.zeros(4)],
                GaussianSet(
                    np.float32([[np.inf, 0, 0]]),
                    np.ones((1, 3), np.float32),
                    np.float32([[1, 0, 0, 0]]),
                    np.float32([0.5]),
                    np.zeros((1, 12), np.float32),
                ),
            ),
            h,
            Quantization.full32,
        )


# ---------------------------------------------------------------------------
# plan_budget
# ---------------------------------------------------------------------------


def test_plan_budget_cap_binds():
    cfg = StreamConfig(levels=3, quantization=Quantization.half16)
    assert plan_budget(216, 10_000_000, cfg) == 9  # ceil(216 / 24)


def test_plan_budget_worked_example():
    # finest 9 at ratio 3 targets (1, 3, 9): grids 1, 2 and 3 cells a side, so
    # up to 1 + 8 + 27 = 36 anchors of 7 half16 values each
    cfg = StreamConfig(levels=3, level_ratio=3, quantization=Quantization.half16)
    assert level_caps(100_000, cfg, 9) == (1, 8, 27)
    assert plan_budget(100_000, 36 * 7 * 2 + 64, cfg, overhead=64) == 9
    # finest 10 needs base 2, targets (2, 6, 18) and caps (8, 8, 27); base 2
    # serves every finest count up to 18
    assert level_caps(100_000, cfg, 10) == (8, 8, 27)
    assert plan_budget(100_000, 43 * 7 * 2 + 64 - 1, cfg, overhead=64) == 9
    assert plan_budget(100_000, 43 * 7 * 2 + 64, cfg, overhead=64) == 18


def test_plan_budget_infeasible():
    cfg = StreamConfig(levels=3, quantization=Quantization.half16)
    with pytest.raises(BudgetError) as exc_info:
        plan_budget(1000, 64, cfg, overhead=64)
    assert exc_info.value.minimum_bytes == 36 * 7 * 2 + 64
    # default overhead: the 29 fixed frame bytes on top of caps (1, 8, 27)
    with pytest.raises(BudgetError) as exc_info:
        plan_budget(1000, 532, cfg)
    assert exc_info.value.minimum_bytes == 533 == 36 * 7 * 2 + frame_overhead_bytes(3)
    assert plan_budget(1000, 533, cfg) == 9


def test_plan_budget_exact_bound_and_monotone():
    cfg = StreamConfig(levels=3, quantization=Quantization.half16)
    w = 2
    overhead = 64
    cap = math.ceil(100_000 * cfg.finest_fraction)

    def cost(finest):
        return sum(level_caps(100_000, cfg, finest)) * 7 * w + overhead

    prev = None
    for budget in range(150, 40_000, 1385):
        try:
            finest = plan_budget(100_000, budget, cfg, overhead=overhead)
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
    cfg = StreamConfig(levels=2, level_ratio=3, quantization=Quantization.full32)
    overhead = frame_overhead_bytes(2)

    def cost(finest):  # targets (base, 3 * base); each fills up to m^3 cells
        base = -(-finest // 3)
        return sum(cube_root_ceil(t) ** 3 for t in (base, 3 * base)) * 7 * 4 + overhead

    brute_min = min(cost(f) for f in range(1, 50))
    with pytest.raises(BudgetError) as exc_info:
        plan_budget(1000, brute_min - 1, cfg)
    assert exc_info.value.minimum_bytes == brute_min
    assert plan_budget(1000, brute_min, cfg) == 3  # base 1 serves finest 1..3
    for budget in range(brute_min, 20_000, 997):
        finest = plan_budget(1000, budget, cfg)
        assert cost(finest) <= budget
        assert budget < cost(finest + 1) or finest == 42  # ceil(1000 / 24)


# ---------------------------------------------------------------------------
# storage report
# ---------------------------------------------------------------------------


def test_storage_report_single_zero_frame(rng):
    _, h = small_hierarchy(rng, anchors=4)
    payload = encode_frame(1, FrameDeformation.zeros(h), h, Quantization.full32)
    stats = [FrameStats(1, len(payload), 112, 0, frame_overhead_bytes(1), False)]
    report = storage_report(stats)
    assert report.delta_bytes == 112
    assert report.mean_bytes == len(payload)
    assert "deltas=112B" in report.decomposition()


def test_storage_report_mean_is_total_over_frames():
    stats = [FrameStats(i, 100 + i, 50, 10, 29, False) for i in range(1, 11)]
    report = storage_report(stats)
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
    block = delta_block_bytes(counts, Quantization.half16)
    assert abs(block - 295_000) / 295_000 < 0.01  # ~295 KB/frame
