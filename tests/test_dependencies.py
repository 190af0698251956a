"""numpy is the only runtime dependency, as ``pyproject.toml`` declares.

Importing ``scipy.spatial`` alone adds about 36 MiB to the process, so a
session that pulls scipy in is a regression even where scipy is installed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SESSION = """
import sys
from fractions import Fraction

import anchorstream
import anchorstream.cli
from anchorstream import StreamConfig, decode_session, encode_session, generate_scene, two_body_arm_spec
from anchorstream.session import SyntheticSource

spec = two_body_arm_spec(frames=4, seed=3)
for body in spec.bodies:
    body.point_count = 300
source = SyntheticSource(generate_scene(spec))
base = source.base_gaussians()
# a finest level above the L1 anchor crossover, pruned at any point count,
# and one reconfiguration
anchorstream.kernels.PRUNE_MIN_POINTS = 0
config = StreamConfig(finest_fraction=Fraction(1, 5), reconfig_period=2,
                      phase1_steps=3, phase2_steps=1)
enc = encode_session(base, source, config)
assert max(enc.state.hierarchy.anchor_counts()) > anchorstream.kernels.SCAN_MAX_ANCHORS
dec = decode_session(base, enc.stream)
assert [m.checksum for m in dec.metrics] == [m.checksum for m in enc.metrics]
print(sorted(name for name in sys.modules if name.split(".")[0] in ("scipy", "numba")))
"""


def test_a_session_imports_neither_scipy_nor_numba():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SESSION], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_pyproject_declares_numpy_only():
    text = (SRC.parent / "pyproject.toml").read_text()
    deps = text.split("dependencies = [", 1)[1].split("]", 1)[0]
    assert [line.strip() for line in deps.strip().splitlines()] == ['"numpy>=1.24",']
