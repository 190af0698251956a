"""Tests of the benchmark itself, on tiny versions of its workloads."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracer  # noqa: E402
from anchorstream import session  # noqa: E402
from anchorstream.synth import generate_scene  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    arm_pivot_spec,
    field_large_spec,
    pair_additive_spec,
)

TINY_SPECS = {
    "arm_pivot": partial(arm_pivot_spec, frames=7, point_scale=0.1),
    "pair_additive": partial(pair_additive_spec, frames=7, per_body=150),
    "field_large": partial(field_large_spec, frames=6, per_cube=60),
}


def tiny(name: str) -> Workload:
    w = WORKLOADS[name]
    config = dataclasses.replace(w.config, reconfig_period=3,
                                 phase1_steps=min(8, w.config.phase1_steps),
                                 phase2_steps=1)
    return dataclasses.replace(w, make_spec=TINY_SPECS[name], config=config)


def _quiet(line: str) -> None:
    pass


@pytest.fixture(autouse=True)
def _no_setup_floor(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_MIN_S", 0.0)
    monkeypatch.setattr(harness, "DECODE_MIN_S", 0.0)


@pytest.fixture(scope="module")
def traced_runs():
    """One traced run per tiny workload: an untraced then a traced iteration."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "SETUP_MIN_S", 0.0)
        mp.setattr(harness, "DECODE_MIN_S", 0.0)
        return {name: harness.run(tiny(name), seed=3, seconds=0, trace=True, log=_quiet)
                for name in WORKLOADS}


def _value(result, metric):
    return result.metrics[metric][0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_is_correct_and_every_span_is_called(traced_runs, name):
    result = traced_runs[name]
    frames = tiny(name).make_spec(3).frames - 1
    assert result.correct and result.failed == 0 and result.attempted == 2 * frames
    assert _value(result, "mirror_fail_frac") == 0.0
    for span in tracer.SPANS:
        assert _value(result, f"{span}.calls") >= 1, span


def test_inheritance_rotates_only_in_pivot_mode(traced_runs):
    assert _value(traced_runs["arm_pivot"], "motion.inherit_deformation.rotated") > 0
    assert _value(traced_runs["pair_additive"], "motion.inherit_deformation.rotated") == 0
    assert _value(traced_runs["field_large"], "motion.inherit_deformation.rotated") == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_l1_calls_match_builds_and_clone_frames(traced_runs, name):
    result = traced_runs[name]
    rows = [r for r in result.spans if r[0] == 0]
    clone_frames = sum(1 for r in rows if r[4] == "fitting.densify_residuals" and r[7] > 0)
    builds = sum(1 for r in rows if r[4] == "hierarchy.build_hierarchy")
    levels = tiny(name).config.levels
    # the decoder appends the same clones on the same frames as the encoder
    assert _value(result, "kernels.l1_nearest.calls") == levels * (builds + 2 * clone_frames)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_are_nonnegative_and_bounded_by_roots(traced_runs, name):
    result = traced_runs[name]
    self_times = [_value(result, f"{span}.self_s") for span in tracer.SPANS]
    assert min(self_times) >= 0.0
    roots = (_value(result, "session.encode_session.total_s")
             + _value(result, "session.decode_session.total_s"))
    assert sum(self_times) <= roots + 1e-9


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_spans_of_one_session_share_its_id(traced_runs, name):
    rows = [r for r in traced_runs[name].spans if r[0] == 0]
    by_id = {r[1]: r for r in rows}
    roots = [r for r in rows if r[3] is None]
    assert sorted(r[4] for r in roots) == ["session.decode_session", "session.encode_session"]
    for r in rows:
        assert r[2] in {root[1] for root in roots}
        if r[3] is not None:
            parent = by_id[r[3]]
            assert parent[2] == r[2] and parent[5] <= r[5] <= r[6] <= parent[6]


def test_evals_per_step_counts_fit_evaluations(traced_runs):
    for result in traced_runs.values():
        assert 1.0 <= _value(result, "fitting.evals_per_step") <= 2.5


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_deterministic_metrics_repeat_on_one_seed(name):
    first = harness.run(tiny(name), seed=5, seconds=0, trace=False, log=_quiet)
    second = harness.run(tiny(name), seed=5, seconds=0, trace=False, log=_quiet)
    assert first.correct and second.correct
    for metric in ("mean_error", "max_frame_error", "bytes_per_frame", "final_gaussians"):
        assert first.metrics[metric] == second.metrics[metric]
    assert set(first.metrics) == set(harness.END_TO_END)


def _session_inputs(name):
    w = tiny(name)
    source = session.SyntheticSource(generate_scene(w.make_spec(3)))
    return w, source.base_gaussians(), source


def test_traced_session_matches_untraced_checksums():
    w, base, source = _session_inputs("arm_pivot")
    plain = harness.run_session(base, source, w)
    traced = harness.run_session(base, source, w, tracer.Tracer())
    assert traced.checksums == plain.checksums and not traced.failures


def _binding_values():
    return {b: getattr(*tracer._resolve(b)) for spans in tracer.SPANS.values() for b in spans}


def test_tracer_restores_every_binding():
    before = _binding_values()
    t = tracer.Tracer()
    with t.installed():
        assert all(v is not before[b] for b, v in _binding_values().items())
    assert _binding_values() == before


def test_tracer_fails_loudly_on_a_missing_binding(monkeypatch):
    before = _binding_values()
    monkeypatch.delattr(session, "_advance_state")
    with pytest.raises(tracer.TracerError, match="_advance_state"):
        tracer.Tracer().install()
    monkeypatch.undo()
    assert _binding_values() == before


def test_tracer_fails_loudly_on_a_rebound_alias(monkeypatch):
    monkeypatch.setattr(session, "l1_nearest", lambda points, anchors: None)
    with pytest.raises(tracer.TracerError, match="session.l1_nearest"):
        tracer.Tracer().install()


def test_mirror_gate_names_the_bad_frame():
    w, base, source = _session_inputs("pair_additive")
    cfg = w.config
    enc = session.encode_session(base, source, cfg)
    dec = session.decode_session(base, enc.stream, cfg.level_ratio, cfg.composition_mode)
    assert harness.mirror_failures(enc, dec) == {}
    dec.metrics[2].checksum = "0" * 64
    assert list(harness.mirror_failures(enc, dec)) == [3]
    raised = harness.mirror_failures(enc, ValueError("boom"))
    assert sorted(raised) == [m.frame_index for m in enc.metrics]
    dec.state.gaussians.positions[0, 0] += 1.0
    assert "not byte-equal" in harness.mirror_failures(enc, dec)[enc.metrics[-1].frame_index]


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()
    run_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    run_module = importlib.util.module_from_spec(run_spec)
    run_spec.loader.exec_module(run_module)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOADS) == list(run_module.WORKLOAD_NAMES)


def test_run_refuses_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "arm_pivot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
