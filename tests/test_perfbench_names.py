"""The benchmark's name contract: every package name `perfbench/` reaches exists.

The benchmark calls into macsat through module attributes (`mcsim.simulate_joint`,
`channel.bawgn_density`, ...) and wraps the spans listed in `layers.TARGETS`.
A refactor that drops one of these names should fail here, not as a malformed
benchmark run. The benchmark also empties the package's per-channel-point
caches by name, so a cache it does not know of fails here too.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import macsat
from macsat import channel
from macsat.densities import DensityGrid

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


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass resolves its module by name
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    layers = _load("layers")
    pairs = {(module, attr) for _, module, attr, _ in layers.TARGETS}
    assert ("macsat.mcsim", "_decode_frame") in pairs
    assert _missing(pairs) == []


def test_benchmark_clears_every_cache():
    caches = []
    for info in pkgutil.iter_modules(macsat.__path__):
        module = importlib.import_module(f"macsat.{info.name}")
        caches += [
            f"{module.__name__}.{name}"
            for name, value in vars(module).items()
            if "CACHE" in name and isinstance(value, dict)
        ]
    assert caches == ["macsat.channel._FN_CACHE"]

    channel.fn_operator(DensityGrid(1.0, 4.0), 1, channel.ChannelPoint(1.0, 1.0))
    assert channel._FN_CACHE
    _load("workloads").clear_channel_caches()
    assert not channel._FN_CACHE
