"""numpy is the only runtime dependency, as ``pyproject.toml`` declares.

Importing ``scipy.spatial`` alone adds about 36 MiB to the process, so a
session that pulls scipy in is a regression even where scipy is installed.
No module of the package imports a name it never uses, and no module-level
private function or class outlives its last reader in the package.
"""

import ast
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
# every L1 assignment through the cell search, a finest level of g >= 4 cells
# per axis, so its neighbourhoods leave cells out, and one reconfiguration
anchorstream.kernels.SCAN_MAX_PAIRS = 0
config = StreamConfig(finest_fraction=Fraction(1, 5), reconfig_period=2,
                      phase1_steps=3, phase2_steps=1)
enc = encode_session(base, source, config)
assert max(enc.state.hierarchy.anchor_counts()) >= 64
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


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, including those inside string annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
            annotations = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            used |= _annotation_names(annotation)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_src_modules_have_no_unused_imports():
    unused = {}
    for path in sorted((SRC / "anchorstream").glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        found = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if found:
            unused[path.name] = found
    assert unused == {}


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private functions and classes, by name, with their lines."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_private_definition_is_read_by_a_src_module():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted((SRC / "anchorstream").glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    unread = {name: [f"line {line}: {d}" for d, line in _private_definitions(tree).items()
                     if d not in read]
              for name, tree in trees.items()}
    assert {name: found for name, found in unread.items() if found} == {}
