import numpy as np
import pytest

from anchorstream import (
    ConfigError,
    GaussianSet,
    SceneState,
    StreamConfig,
    build_hierarchy,
    validate_state,
)


def make_state(n=10, seed=0):
    rng = np.random.default_rng(seed)
    g = GaussianSet.from_positions(rng.random((n, 3), dtype=np.float32))
    return SceneState(g)


def test_clean_state_has_no_violations():
    state = make_state()
    assert validate_state(state) == []


def test_unnormalized_quaternion_flagged():
    state = make_state()
    state.gaussians.orientations[3] = np.float32([2, 0, 0, 0])
    violations = validate_state(state)
    assert len(violations) == 1
    assert violations[0].index == 3
    assert violations[0].field == "orientation"


def test_nonpositive_scale_flagged():
    state = make_state()
    state.gaussians.scales[5] = np.float32([1, -1, 1])
    violations = validate_state(state)
    assert [(v.index, v.field) for v in violations] == [(5, "scale")]


def test_opacity_out_of_range_flagged():
    state = make_state()
    state.gaussians.opacities[2] = 1.5
    violations = validate_state(state)
    assert [(v.index, v.field) for v in violations] == [(2, "opacity")]


def test_nan_position_flagged():
    state = make_state()
    state.gaussians.positions[0, 1] = np.nan
    fields = {v.field for v in validate_state(state)}
    assert fields == {"position"}


def test_validate_is_idempotent_and_pure():
    state = make_state()
    state.gaussians.orientations[1] = np.float32([0.5, 0.5, 0, 0])
    first = validate_state(state)
    second = validate_state(state)
    assert first == second
    assert len(first) == 1


def test_normalizing_violator_clears_violation():
    state = make_state()
    state.gaussians.orientations[1] = np.float32([3, 0, 0, 0])
    assert len(validate_state(state)) == 1
    q = state.gaussians.orientations[1].astype(np.float64)
    state.gaussians.orientations[1] = (q / np.linalg.norm(q)).astype(np.float32)
    assert validate_state(state) == []


def test_hierarchy_assignment_validated():
    state = make_state(n=30)
    state.hierarchy = build_hierarchy(state.gaussians, StreamConfig(levels=2))
    assert validate_state(state) == []
    state.hierarchy.levels[0].assignment[4] = 999
    violations = validate_state(state)
    assert any(v.field == "hierarchy" and v.index == 4 for v in violations)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        StreamConfig(levels=0)
    with pytest.raises(ConfigError):
        StreamConfig(levels=5)
    with pytest.raises(ConfigError):
        StreamConfig(finest_fraction=0)
    with pytest.raises(ConfigError):
        StreamConfig(reconfig_period=0)
    for threshold in (float("nan"), float("inf"), float("-inf"), 0.0, -1.0):
        with pytest.raises(ConfigError, match="densify_threshold"):
            StreamConfig(densify_threshold=threshold)
    for name in ("levels", "level_ratio", "reconfig_period", "phase1_steps", "phase2_steps"):
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got 2.5"):
            StreamConfig(**{name: 2.5})
    for fraction in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finest_fraction must be a finite number"):
            StreamConfig(finest_fraction=fraction)
    for threshold in ("0.1", None):
        with pytest.raises(ConfigError, match="densify_threshold must be finite"):
            StreamConfig(densify_threshold=threshold)
    with pytest.raises(ConfigError, match=r"quantization must be one of \[0, 1, 2\], got 7"):
        StreamConfig(quantization=7)
    with pytest.raises(ConfigError, match=r"composition_mode must be one of \[0, 1\], got 5"):
        StreamConfig(composition_mode=5)
