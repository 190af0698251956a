import json

import numpy as np
import pytest

from anchorstream import (
    BodySpec,
    ConfigError,
    SceneSpec,
    generate_scene,
    load_scene_spec,
)
from anchorstream.motion import quat_from_axis_angle
from anchorstream.synth import SplitMix64, scene_spec_from_dict

from oracles import rotation_matrix, splitmix64_reference


# ---------------------------------------------------------------------------
# PRNG
# ---------------------------------------------------------------------------


def test_splitmix_matches_pure_python_reference():
    for seed in (0, 1, 42, 2**63, 0xDEADBEEF):
        got = SplitMix64(seed).next_u64(64)
        want = splitmix64_reference(seed, 64)
        assert [int(x) for x in got] == want


def test_splitmix_uniform_range():
    u = SplitMix64(9).uniforms(10_000)
    assert (u >= 0).all() and (u < 1).all()
    assert abs(u.mean() - 0.5) < 0.02


def test_splitmix_streams_independent():
    root = SplitMix64(7)
    a = root.spawn(1).uniforms(100)
    b = root.spawn(2).uniforms(100)
    assert not np.array_equal(a, b)


def test_normals_deterministic_and_plausible():
    a = SplitMix64(123).normals(20_001)
    b = SplitMix64(123).normals(20_001)
    assert np.array_equal(a, b)
    assert abs(a.mean()) < 0.03 and abs(a.std() - 1) < 0.03


# ---------------------------------------------------------------------------
# generate_scene
# ---------------------------------------------------------------------------


def test_static_body_all_frames_identical():
    spec = SceneSpec(bodies=[BodySpec(point_count=50, extent=[1, 1, 1])], frames=5, seed=2)
    scene = generate_scene(spec)
    for t in range(1, 5):
        assert np.array_equal(scene.positions[t], scene.positions[0])


def test_pure_translation_exact():
    spec = SceneSpec(
        bodies=[BodySpec(point_count=40, extent=[1, 1, 1], velocity=[0.1, 0, 0])],
        frames=6, seed=3,
    )
    scene = generate_scene(spec)
    for t in range(6):
        want = scene.positions[0] + np.array([0.1 * t, 0.0, 0.0])
        assert np.array_equal(scene.positions[t], want)


def test_articulated_arm_matches_rotation_oracle():
    rate = np.deg2rad(5.0)
    spec = SceneSpec(
        bodies=[
            BodySpec(point_count=30, extent=[1, 1, 1], center=[0, 0, 0],
                     axis=[0, 0, 1], angle_rate=rate, pivot=[0, 0, 0]),
            BodySpec(point_count=20, extent=[0.5, 0.5, 0.5], center=[1, 0, 0],
                     axis=[0, 1, 0], angle_rate=2 * rate, pivot=[0.75, 0, 0], parent=0),
        ],
        frames=8, seed=4,
    )
    scene = generate_scene(spec)
    child = scene.body_of == 1
    base = scene.base_positions[child]
    for t in range(8):
        r_child = rotation_matrix(quat_from_axis_angle([0, 1, 0], 2 * rate * t))
        p_local = (base - [0.75, 0, 0]) @ r_child.T + [0.75, 0, 0]
        r_parent = rotation_matrix(quat_from_axis_angle([0, 0, 1], rate * t))
        want = p_local @ r_parent.T  # parent pivot is the origin
        assert np.abs(scene.positions[t][child] - want).max() < 1e-9


def test_trajectories_are_isometries():
    spec = SceneSpec(
        bodies=[BodySpec(point_count=60, extent=[1, 2, 0.5], velocity=[0.05, -0.02, 0.01],
                         axis=[1, 1, 0], angle_rate=0.12, pivot=[0.3, 0, 0])],
        frames=7, seed=6,
    )
    scene = generate_scene(spec)
    d0 = np.linalg.norm(
        scene.positions[0][:, None, :] - scene.positions[0][None, :, :], axis=2
    )
    for t in range(1, 7):
        dt = np.linalg.norm(
            scene.positions[t][:, None, :] - scene.positions[t][None, :, :], axis=2
        )
        assert np.abs(dt - d0).max() < 1e-9


def test_same_seed_bit_identical():
    spec = SceneSpec(
        bodies=[BodySpec(point_count=100, extent=[1, 1, 1], velocity=[0.01, 0, 0])],
        frames=5, seed=77, noise_sigma=0.01,
    )
    a = generate_scene(spec)
    b = generate_scene(spec)
    for t in range(5):
        assert np.array_equal(a.positions[t], b.positions[t])
        assert np.array_equal(a.targets[t], b.targets[t])


def test_noise_applies_to_targets_only():
    spec = SceneSpec(
        bodies=[BodySpec(point_count=30, extent=[1, 1, 1])], frames=4, seed=1,
        noise_sigma=0.05,
    )
    scene = generate_scene(spec)
    assert np.array_equal(scene.targets[0], scene.positions[0])
    for t in range(1, 4):
        assert not np.array_equal(scene.targets[t], scene.positions[t])
        assert np.abs(scene.targets[t] - scene.positions[t]).max() < 0.05 * 6


def test_cyclic_articulation_rejected():
    with pytest.raises(ConfigError):
        SceneSpec(
            bodies=[
                BodySpec(point_count=5, extent=[1, 1, 1], parent=1),
                BodySpec(point_count=5, extent=[1, 1, 1], parent=0),
            ],
            frames=3, seed=0,
        )


def test_spec_validation():
    with pytest.raises(ConfigError):
        SceneSpec(bodies=[], frames=5, seed=0)
    with pytest.raises(ConfigError):
        SceneSpec(bodies=[BodySpec(point_count=5, extent=[1, 1, 1])], frames=1, seed=0)


@pytest.mark.parametrize("body, message", [
    ({"extent": [1, 1]}, "extent must be 3 finite numbers"),
    ({"center": [0, float("nan"), 0]}, "center must be 3 finite numbers"),
    ({"velocity": [float("inf"), 0, 0]}, "velocity must be 3 finite numbers"),
    ({"axis": [0, 0, 1, 0]}, "axis must be 3 finite numbers"),
    ({"pivot": [0, 0, float("-inf")]}, "pivot must be 3 finite numbers"),
    ({"angle_rate": float("nan")}, "angle_rate must be finite"),
    ({"axis": [0, 0, 0], "angle_rate": 0.1}, "nonzero axis"),
])
def test_body_spec_rejects_bad_numbers(body, message):
    data = {"frames": 3, "seed": 0, "bodies": [{"point_count": 5, "extent": [1, 1, 1], **body}]}
    with pytest.raises(ConfigError, match=message):
        scene_spec_from_dict(data)


def test_a_still_body_may_have_a_zero_axis():
    generate_scene(SceneSpec([BodySpec(point_count=5, extent=[1, 1, 1], axis=[0, 0, 0])], 3, 0))


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
def test_scene_spec_rejects_a_bad_noise_sigma(sigma):
    with pytest.raises(ConfigError, match="noise_sigma must be finite and >= 0"):
        SceneSpec(bodies=[BodySpec(point_count=5, extent=[1, 1, 1])], frames=3, seed=0,
                  noise_sigma=sigma)


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


def test_scene_spec_json_round_trip(tmp_path):
    data = {
        "seed": 42,
        "frames": 6,
        "noise_sigma": 0.0,
        "bodies": [
            {"point_count": 10, "extent": [1, 1, 1], "velocity": [0.1, 0, 0]},
            {"point_count": 5, "extent": [0.5, 0.5, 0.5], "center": [1, 0, 0],
             "axis": [0, 0, 1], "angle_rate": 0.1, "pivot": [0.7, 0, 0], "parent": 0},
        ],
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    spec = load_scene_spec(path)
    assert spec.frames == 6
    assert spec.bodies[1].parent == 0
    direct = scene_spec_from_dict(data)
    a = generate_scene(spec)
    b = generate_scene(direct)
    assert np.array_equal(a.positions[-1], b.positions[-1])


def test_scene_spec_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scene_spec(path)
    with pytest.raises(ConfigError):
        scene_spec_from_dict({"frames": 3, "seed": 0})
