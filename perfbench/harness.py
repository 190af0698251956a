"""One benchmark run: repeated encode -> decode sessions of one workload.

Each iteration times repeated frame-0 hierarchy builds (set-up), one
``encode_session`` and repeated ``decode_session`` calls replaying its stream,
then runs the mirror gate on every decode. With tracing on, every second iteration runs
under a :class:`tracer.Tracer`; its timings feed the per-layer metrics only,
never the end-to-end ones.
"""

from __future__ import annotations

import math
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from anchorstream import hierarchy, session
from anchorstream.synth import generate_scene
from anchorstream.types import SceneState, validate_state

from tracer import COUNTERS, PARENT_SPANS, SPANS, Tracer, spans_as_rows, summarize
from workloads import Workload

# end-to-end metric -> unit; every one is lower-is-better
END_TO_END = {
    "encode_s": "s",
    "decode_s": "s",
    "setup_s": "s",
    "mean_error": "scene_units",
    "max_frame_error": "scene_units",
    "bytes_per_frame": "B",
    "final_gaussians": "count",
    "peak_rss_mb": "MiB",
}

# set-up is sampled at least this often and this long per iteration, so its
# median rests on several builds even where one build takes over a second
SETUP_MIN_BUILDS = 3
SETUP_MIN_S = 0.25
# an untraced session decodes its stream until this long is spent (at least
# once), so a decode of a few tenths of a second is sampled several times
DECODE_MIN_S = 1.0


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in PARENT_SPANS:
            units[f"{name}.total_s"] = "s"
    for name, (count, _) in COUNTERS.items():
        units[f"{name}.{count}"] = "B" if count == "bytes" else "count"
    units["fitting.evals_per_step"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    units["mirror_fail_frac"] = "ratio"
    return units


@dataclass
class SessionSample:
    encode_s: float
    decode_s: list[float]
    checksums: dict[int, str]
    quality: dict[str, float]
    failures: dict[int, str]
    spans: Optional[list] = None


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    samples: dict[str, list[float]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)


def _same_state(a: SceneState, b: SceneState) -> bool:
    """Byte equality of the gaussian columns and of every hierarchy array."""
    if a.frame_index != b.frame_index:
        return False
    cols_a, cols_b = a.gaussians.attribute_arrays(), b.gaussians.attribute_arrays()
    if any(x.shape != y.shape or x.tobytes() != y.tobytes() for x, y in zip(cols_a, cols_b)):
        return False
    if a.hierarchy.level_count != b.hierarchy.level_count:
        return False
    for la, lb in zip(a.hierarchy.levels, b.hierarchy.levels):
        for x, y in ((la.anchor_indices, lb.anchor_indices), (la.assignment, lb.assignment),
                     (la.bounds_min, lb.bounds_min), (la.bounds_max, lb.bounds_max)):
            if x.shape != y.shape or x.tobytes() != y.tobytes():
                return False
    return True


def mirror_failures(enc: session.SessionResult, dec) -> dict[int, str]:
    """Frame index -> reason, for every frame the decoder failed to mirror.

    ``dec`` is the decode result, or the exception decoding raised, which
    fails every frame. Final-state problems fail the last frame.
    """
    frames = [m.frame_index for m in enc.metrics]
    if isinstance(dec, Exception):
        return {f: f"decode raised {type(dec).__name__}: {dec}" for f in frames}
    decoded = {m.frame_index: m.checksum for m in dec.metrics}
    out = {}
    for m in enc.metrics:
        got = decoded.get(m.frame_index)
        if got is None:
            out[m.frame_index] = "decoder produced no state"
        elif got != m.checksum:
            out[m.frame_index] = "decoder checksum differs from the encoder's"
        elif not math.isfinite(m.mean_error):
            out[m.frame_index] = f"non-finite mean error {m.mean_error}"
    problems = []
    if not _same_state(enc.state, dec.state):
        problems.append("final decoded state is not byte-equal to the encoder's")
    for side, state in (("encoder", enc.state), ("decoder", dec.state)):
        violations = validate_state(state)
        if violations:
            problems.append(f"{side} final state has {len(violations)} violations, "
                            f"first {violations[0]}")
    if problems:
        last = frames[-1]
        out[last] = "; ".join(([out[last]] if last in out else []) + problems)
    return out


QUALITY = ("mean_error", "max_frame_error", "bytes_per_frame", "final_gaussians")


def _quality(enc: session.SessionResult) -> dict[str, float]:
    errors = [m.mean_error for m in enc.metrics]
    return {
        "mean_error": float(np.mean(errors)),
        "max_frame_error": float(np.max(errors)),
        "bytes_per_frame": float(enc.report.mean_bytes),
        "final_gaussians": len(enc.state.gaussians),
    }


def run_session(base, source, workload: Workload,
                tracer: Optional[Tracer] = None) -> SessionSample:
    """One timed encode, its timed decodes, and the mirror gate on each decode.

    A traced session decodes once, so its span counts do not depend on timing.
    """
    config = workload.config
    failures: dict[int, str] = {}

    def timed_decode(enc) -> float:
        t = perf_counter()
        try:
            dec = session.decode_session(base, enc.stream, config.level_ratio,
                                         config.composition_mode)
        except Exception as exc:  # a decode failure is counted per frame, not fatal
            traceback.print_exc()
            dec = exc
        elapsed = perf_counter() - t
        # checked and dropped at once, so decodes never pile up in memory
        for frame, reason in mirror_failures(enc, dec).items():
            failures.setdefault(frame, reason)
        return elapsed

    def encode_decode():
        t = perf_counter()
        enc = session.encode_session(base, source, config)
        encode_s = perf_counter() - t
        return enc, encode_s, [timed_decode(enc)]

    if tracer is None:
        enc, encode_s, decode_s = encode_decode()
        while sum(decode_s) < DECODE_MIN_S:
            decode_s.append(timed_decode(enc))
    else:
        with tracer.installed():
            enc, encode_s, decode_s = encode_decode()
    return SessionSample(
        encode_s, decode_s, {m.frame_index: m.checksum for m in enc.metrics}, _quality(enc),
        failures, tracer.spans if tracer else None,
    )


def _time_setup(base, workload: Workload) -> list[float]:
    samples = []
    start = perf_counter()
    while len(samples) < SETUP_MIN_BUILDS or perf_counter() - start < SETUP_MIN_S:
        t = perf_counter()
        hierarchy.build_hierarchy(base, workload.config)
        samples.append(perf_counter() - t)
    return samples


def _layer_metrics(samples: list[SessionSample], workload: Workload) -> dict[str, float]:
    """Per-layer values: times are medians over the traced sessions."""
    stats = [summarize(s.spans) for s in samples]
    first = stats[0]
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = first[name].calls
        out[f"{name}.self_s"] = statistics.median(st[name].self_s for st in stats)
        if name in PARENT_SPANS:
            out[f"{name}.total_s"] = statistics.median(st[name].total_s for st in stats)
    for name, (count, _) in COUNTERS.items():
        out[f"{name}.{count}"] = first[name].count
    fits = first["fitting.fit_frame"].calls * workload.config.phase1_steps
    evals = first["fitting.loss_and_gradient"].parent_names["fitting.fit_frame"]
    out["fitting.evals_per_step"] = evals / fits if fits else math.nan
    return out


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        log: Callable[[str], None] = print) -> RunResult:
    """Iterate sessions until ``seconds`` would be exceeded, then report.

    A run covers ``workload.scenes`` scenes, with scene seeds
    ``seed * scenes + k``. An untraced run visits each scene in turn, at
    least once each; a traced run makes untraced-traced pairs on one scene at
    a time, at least one pair. The next iteration starts only if it is
    expected to end within ``seconds``.
    """
    q = workload.scenes
    sources = [session.SyntheticSource(generate_scene(workload.make_spec(seed * q + k)))
               for k in range(q)]
    bases = [source.base_gaussians() for source in sources]
    min_iterations = 2 if trace else q
    # untimed warm-up: the first builds of a process run measurably slower
    hierarchy.build_hierarchy(bases[0], workload.config)

    setup: list[float] = []
    plain: list[SessionSample] = []
    traced: list[SessionSample] = []
    failures: list[str] = []
    attempted = failed = 0
    references: dict[int, SessionSample] = {}
    peak_rss_mb = 0.0
    start = perf_counter()
    iteration = 0
    while True:
        k = (iteration // 2 if trace else iteration) % q
        setup_times = _time_setup(bases[k], workload)
        setup.extend(setup_times)
        use_tracer = trace and iteration % 2 == 1
        sample = run_session(bases[k], sources[k], workload, Tracer() if use_tracer else None)
        (traced if use_tracer else plain).append(sample)

        bad = dict(sample.failures)
        reference = references.setdefault(k, sample)
        if reference is not sample:
            for frame, checksum in sample.checksums.items():
                if checksum != reference.checksums.get(frame):
                    bad.setdefault(frame, "encoder checksum differs from the first session "
                                          "on this scene")
            if sample.quality != reference.quality:
                bad.setdefault(max(sample.checksums),
                               "quality metrics differ from the first session on this scene")
        for frame, reason in sorted(bad.items()):
            failures.append(f"iteration {iteration} scene {k} frame {frame}: {reason}")
            log(f"FAIL {workload.name} iteration {iteration} scene {k} frame {frame}: {reason}")
        attempted += len(sample.checksums)
        failed += len(bad)

        log(f"{workload.name} iteration {iteration} scene {k}"
            f"{' (traced)' if use_tracer else ''}: "
            f"setup {statistics.median(setup_times):.4f} s x{len(setup_times)}, "
            f"encode {sample.encode_s:.3f} s, "
            f"decode {statistics.median(sample.decode_s):.3f} s x{len(sample.decode_s)}")
        if iteration == 0:
            # later sessions add allocator fragmentation, not the workload's need
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        iteration += 1
        elapsed = perf_counter() - start
        if iteration >= min_iterations and elapsed * (iteration + 1) / iteration > seconds:
            break

    encode_s = [s.encode_s for s in plain]
    decode_s = [t for s in plain for t in s.decode_s]
    samples = {"setup_s": setup, "encode_s": encode_s, "decode_s": decode_s}
    if trace:
        values = _layer_metrics(traced, workload)
        plain_total = statistics.median(s.encode_s + statistics.median(s.decode_s)
                                        for s in plain)
        traced_total = statistics.median(s.encode_s + s.decode_s[0] for s in traced)
        values["trace.overhead_frac"] = traced_total / plain_total - 1.0
        values["mirror_fail_frac"] = failed / attempted
        units = per_layer_units()
        samples["traced_encode_s"] = [s.encode_s for s in traced]
        samples["traced_decode_s"] = [s.decode_s[0] for s in traced]
    else:
        values = {
            "encode_s": statistics.median(encode_s),
            "decode_s": statistics.median(decode_s),
            "setup_s": statistics.median(setup),
            **{name: float(np.mean([r.quality[name] for r in references.values()]))
               for name in QUALITY},
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    spans = [[i] + row for i, s in enumerate(traced) for row in spans_as_rows(s.spans)]
    return RunResult(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={name: (values[name], unit) for name, unit in units.items()},
        samples=samples,
        failures=failures,
        spans=spans,
    )

