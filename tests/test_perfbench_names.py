"""The benchmark's name contract: every package name `perfbench/` reaches exists.

The benchmark calls into macsat through module attributes (`mcsim.simulate_joint`,
`channel.bawgn_density`, ...) and wraps the spans listed in `layers.TARGETS`.
A refactor that drops one of these names should fail here, not as a malformed
benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_names(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) pairs a perfbench file reaches: the attributes it
    reads off modules bound by `from macsat import m`, and the names of each
    `from macsat.m import X`."""
    tree = ast.parse(path.read_text())
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "macsat":
            modules.update({a.asname or a.name: f"macsat.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("macsat."):
            names.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            names.add((modules[node.value.id], node.attr))
    return names


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _missing(pairs) -> list[str]:
    missing = []
    for module, dotted in sorted(pairs):
        try:
            _resolve(module, dotted)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{dotted}")
    return missing


def test_workload_and_kernel_names_exist():
    pairs = set()
    for name in ("workloads.py", "kernels.py"):
        pairs |= _package_names(PERFBENCH / name)
    # the walk must see the calls the two workloads are built on
    assert {("macsat.mcsim", "simulate_joint"), ("macsat.channel", "bawgn_density")} <= pairs
    assert _missing(pairs) == []


def test_traced_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    pairs = {(module, attr) for _, module, attr, _ in layers.TARGETS}
    assert ("macsat.mcsim", "_decode_frame") in pairs
    assert _missing(pairs) == []
