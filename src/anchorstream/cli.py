"""Command-line front end: encode, decode, bench, synth, inspect."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import codec
from .errors import BudgetError, ConfigError, NumericalError, PlyParseError, StreamFormatError
from .hierarchy import level_caps
from .ply_io import read_gaussian_ply, write_gaussian_ply
from .session import (
    FrameMetrics,
    StaticSource,
    SyntheticSource,
    encode_session,
    iter_decode_metrics,
)
from .synth import generate_scene, load_scene_spec
from .types import CompositionMode, GaussianSet, Quantization, StreamConfig

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad fraction {text!r}: {exc}") from exc


def _parse_int_list(text: str, flag: str) -> list[int]:
    """A comma-separated list of integers; a bad item is a :class:`ConfigError`."""
    values = []
    for item in text.split(","):
        try:
            values.append(int(item))
        except ValueError:
            raise ConfigError(f"{flag}: {item!r} is not an integer") from None
    return values


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per :class:`StreamConfig` field, defaulting to the field's default."""
    d = StreamConfig()
    p.add_argument("--levels", type=int, default=d.levels, help="hierarchy depth L (1..4)")
    p.add_argument("--finest-fraction", default=str(d.finest_fraction),
                   help="finest-level anchor fraction, e.g. 1/24")
    p.add_argument("--level-ratio", type=int, default=d.level_ratio,
                   help="anchor target ratio between adjacent levels; each level's grid "
                        "is sized for its own target")
    p.add_argument("--reconfig-period", type=int, default=d.reconfig_period,
                   help="rebuild the hierarchy every T frames")
    p.add_argument("--quantization", choices=[q.name for q in Quantization],
                   default=d.quantization.name)
    p.add_argument("--mode", choices=[m.name for m in CompositionMode],
                   default=d.composition_mode.name, help="deformation composition mode")
    p.add_argument("--phase1-steps", type=int, default=d.phase1_steps,
                   help="fit sweeps per frame")
    p.add_argument("--phase2-steps", type=int, default=d.phase2_steps,
                   help="densification switch: only zero versus positive matters, "
                        "and 0 turns densification off")
    p.add_argument("--densify-threshold", type=float, default=d.densify_threshold,
                   help="residual above which a gaussian moves to its observed target, "
                        "a 16 B record (finite, > 0)")


def _config_from_args(args) -> StreamConfig:
    return StreamConfig(
        levels=args.levels,
        finest_fraction=_parse_fraction(args.finest_fraction),
        level_ratio=args.level_ratio,
        reconfig_period=args.reconfig_period,
        quantization=Quantization[args.quantization],
        phase1_steps=args.phase1_steps,
        phase2_steps=args.phase2_steps,
        densify_threshold=args.densify_threshold,
        composition_mode=CompositionMode[args.mode],
    )


def _load_input(path: Path, frames: Optional[int] = None):
    """Base gaussians + motion source from a scene spec (.json) or PLY file.

    ``frames`` overrides a spec's own count when given; a PLY input becomes a
    static source of ``frames`` frames, 10 by default. A spec's seed is its
    own, so the decoder's ``--frame0`` draws the encoder's frame 0.
    """
    if path.suffix.lower() == ".json":
        spec = load_scene_spec(path)
        if frames is not None:
            spec = replace(spec, frames=frames)  # re-validates the count
        scene = generate_scene(spec)
        source = SyntheticSource(scene)
        return source.base_gaussians(), source
    base = read_gaussian_ply(path.read_bytes())
    return base, StaticSource(base, 10 if frames is None else frames)


def _write_metrics(path: Path, metrics: list[FrameMetrics]) -> None:
    """One CSV row per frame; ``bytes`` splits into the delta, relocation and overhead columns.

    A decoder's rows hold nan for loss and mean_error and equal the
    encoder's everywhere else.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["frame", "loss", "mean_error", "bytes", "delta_bytes", "relocation_bytes",
                  "overhead_bytes"]
        header += [f"anchors_l{i}" for i in range(1, len(metrics[0].anchor_counts) + 1)]
        header += ["reconfig", "checksum"]
        writer.writerow(header)
        for m in metrics:
            row = [m.frame_index, f"{m.loss:.9e}", f"{m.mean_error:.9e}", m.payload_bytes,
                   m.delta_bytes, m.relocation_bytes, m.overhead_bytes]
            row += list(m.anchor_counts)
            row += [int(m.reconfig), m.checksum]
            writer.writerow(row)


def cmd_encode(args) -> int:
    config = _config_from_args(args)
    output = Path(args.output)
    base, source = _load_input(Path(args.input), args.frames)
    result = encode_session(base, source, config, budget_bytes=args.budget)
    output.write_bytes(result.stream)
    if args.metrics:
        _write_metrics(Path(args.metrics), result.metrics)
    if args.budget is not None:
        caps = level_caps(result.header.gaussian_count_initial, result.header.config)
        print(f"planned per-level anchor caps (coarse->fine): {caps}")
    print(result.report.decomposition())
    print(f"stream: {output} ({len(result.stream)} bytes)")
    print(f"final checksum: {result.metrics[-1].checksum}")
    return EXIT_OK


def cmd_decode(args) -> int:
    if args.export_every < 0:
        raise ConfigError(f"--export-every must be >= 0, got {args.export_every}")
    if bool(args.output_dir) != (args.export_every > 0):
        alone = "--output-dir" if args.output_dir else f"--export-every {args.export_every}"
        raise ConfigError(f"{alone} alone exports nothing: give both --output-dir and "
                          f"--export-every k > 0")
    stream = Path(args.stream).read_bytes()
    base, _ = _load_input(Path(args.frame0))
    out_dir = Path(args.output_dir) if args.output_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    metrics = []
    for row, state in iter_decode_metrics(base, stream):
        metrics.append(row)
        if out_dir is not None and row.frame_index % args.export_every == 0:
            path = out_dir / f"frame_{row.frame_index:04d}.ply"
            path.write_bytes(write_gaussian_ply(state.gaussians))
    if not metrics:
        raise StreamFormatError(f"{args.stream}: stream holds a header but no frames")
    if args.metrics:
        _write_metrics(Path(args.metrics), metrics)
    print(f"decoded {len(metrics)} frames, {len(state.gaussians)} gaussians")
    print(f"final checksum: {metrics[-1].checksum}")
    return EXIT_OK


def cmd_bench(args) -> int:
    spec = load_scene_spec(Path(args.spec))
    scene = generate_scene(spec)
    budgets = sorted(_parse_int_list(args.budgets, "--budgets")) if args.budgets else [None]
    level_list = (_parse_int_list(args.levels_sweep, "--levels-sweep") if args.levels_sweep
                  else [args.levels])
    rows = []
    failures = []
    for levels in level_list:
        config = replace(_config_from_args(args), levels=levels)
        for budget in budgets:
            source = SyntheticSource(scene)
            try:
                result = encode_session(source.base_gaussians(), source, config,
                                        budget_bytes=budget)
            except (BudgetError, NumericalError) as exc:
                failures.append((levels, budget, str(exc)))
                continue
            mean_bytes = result.report.mean_bytes
            mean_err = float(np.mean([m.mean_error for m in result.metrics]))
            rows.append((levels, budget if budget is not None else 0, mean_bytes, mean_err))
    print(f"{'levels':>6} {'budget':>10} {'bytes/frame':>12} {'mean_error':>12}")
    for levels, budget, mean_bytes, mean_err in rows:
        print(f"{levels:>6} {budget:>10} {mean_bytes:>12.1f} {mean_err:>12.6e}")
    if args.output:
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["levels", "budget", "bytes_per_frame", "mean_error"])
            for row in rows:
                writer.writerow([row[0], row[1], f"{row[2]:.3f}", f"{row[3]:.9e}"])
    if failures:
        for levels, budget, msg in failures:
            print(f"FAILED levels={levels} budget={budget}: {msg}", file=sys.stderr)
        print("failed sweep points have no row above", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = load_scene_spec(Path(args.spec))
    if args.seed is not None:
        spec.seed = args.seed
    scene = generate_scene(spec)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for t in range(0, spec.frames, max(1, args.export_every)):
        cloud = GaussianSet.from_positions(scene.positions[t].astype(np.float32))
        (out_dir / f"frame_{t:04d}.ply").write_bytes(write_gaussian_ply(cloud))
        written += 1
    print(f"wrote {written} frames ({scene.point_count} points each) to {out_dir}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    stream = Path(args.stream).read_bytes()
    header = codec.StreamHeader.unpack(stream)
    config, finest = header.config, header.config.finest_fraction
    print(f"version={codec.VERSION} levels={config.levels} "
          f"quantization={config.quantization.name} mode={config.composition_mode.name} "
          f"level_ratio={config.level_ratio} reconfig_period={config.reconfig_period}")
    print(f"finest_fraction={finest.numerator}/{finest.denominator} "
          f"initial_gaussians={header.gaussian_count_initial}")
    print(f"{'frame':>6} {'bytes':>8} {'delta_bytes':>11} {'relocation_bytes':>16} "
          f"{'overhead_bytes':>14} {'anchors':>18} {'relocations':>11} {'reconfig':>8}")
    for payload, size in codec.iter_frames(stream, header):
        counts, moved = payload.realized_counts, len(payload.deltas.relocation_ordinals)
        delta, relocation, overhead = codec.frame_byte_split(counts, moved, config)
        print(f"{payload.frame_index:>6} {size:>8} {delta:>11} "
              f"{relocation:>16} {overhead:>14} {str(counts):>18} "
              f"{moved:>11} {int(header.reconfigures_at(payload.frame_index)):>8}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorstream",
        description="Streaming motion codec for dynamic gaussian point sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="fit, serialize, and account a session")
    enc.add_argument("--input", required=True, help="scene spec (.json) or gaussian PLY")
    enc.add_argument("--output", required=True, help="output .rcgs stream path")
    enc.add_argument("--metrics", help="per-frame metrics CSV path")
    enc.add_argument("--budget", type=int,
                     help="bytes/frame cap on anchor deltas plus frame overhead; plans "
                          "per-level anchor caps that hold at every frame (relocation "
                          "records, 16 B each, extra)")
    enc.add_argument("--frames", type=int,
                     help="override the scene spec frame count; for a PLY (static) "
                          "input, the frame count (default 10)")
    _add_config_flags(enc)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="replay a stream against its frame-0 source; "
                                         "every session setting comes from its header")
    dec.add_argument("--stream", required=True)
    dec.add_argument("--frame0", required=True, help="identical input the encoder used")
    dec.add_argument("--output-dir", help="export decoded frames as PLY here; needs --export-every")
    dec.add_argument("--export-every", type=int, default=0,
                     help="export every k-th frame into --output-dir (0 = none); needs "
                          "--output-dir")
    dec.add_argument("--metrics", help="per-frame metrics CSV path: the encoder's columns, "
                                       "with loss and mean_error nan")
    dec.set_defaults(func=cmd_decode)

    ben = sub.add_parser("bench", help="rate-distortion sweep over budgets")
    ben.add_argument("--spec", required=True, help="scene spec (.json)")
    ben.add_argument("--budgets", help="comma-separated bytes/frame budgets")
    ben.add_argument("--levels-sweep", help="comma-separated hierarchy depths")
    ben.add_argument("--output", help="write the table as CSV")
    _add_config_flags(ben)
    ben.set_defaults(func=cmd_bench)

    syn = sub.add_parser("synth", help="generate a scene and export point clouds")
    syn.add_argument("--spec", required=True)
    syn.add_argument("--output-dir", required=True)
    syn.add_argument("--export-every", type=int, default=1)
    syn.add_argument("--seed", type=int)
    syn.set_defaults(func=cmd_synth)

    ins = sub.add_parser("inspect", help="dump stream header and frame sizes")
    ins.add_argument("--stream", required=True)
    ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"minimum feasible budget: {exc.minimum_bytes} bytes/frame", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PlyParseError, StreamFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
