"""Per-layer metrics: the spans the traced run records and what it reports.

Each metric is named `<module>.<op>.<stat>`. `calls` counts entries into the
op, `self_s` is the op's time minus the time of the spans it caused, and the
remaining stats are counts read from results or derived as ratios (0 when the
op never ran).
"""

from __future__ import annotations

import numpy as np


def array_entries(obj) -> list[int]:
    """Sizes of the numpy arrays an object holds, searched through its
    attributes, dicts, lists and tuples."""
    sizes, stack = [], [vars(obj)]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            sizes.append(item.size)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return sizes


def _iterations(result, args):
    return result.iterations


def _probes(result, args):
    return len(result.probes)


def _frame_iterations(result, args):
    return result[2]


def _table_entries(result, args):
    # the box-plus table's largest index array: one entry per tabulated pair
    return max(array_entries(args[0]), default=0)


def _operator_entries(result, args):
    return sum(array_entries(args[0]))


# (span name, module, attribute, result hook feeding the span's count)
TARGETS = [
    ("densities.conv_cn", "macsat.densities", "conv_cn", None),
    ("densities.magnitude_op", "macsat.densities", "BoxPlusTable.magnitude_op", None),
    ("densities.conv_vn", "macsat.densities", "conv_vn", None),
    ("densities.mix", "macsat.densities", "mix", None),
    ("densities.boxplus_table", "macsat.densities", "BoxPlusTable.__init__", _table_entries),
    ("channel.fn_apply", "macsat.channel", "FnOperator.apply", None),
    ("channel.fn_build", "macsat.channel", "FnOperator.__init__", _operator_entries),
    ("channel.fn_operator", "macsat.channel", "fn_operator", None),
    ("channel.mac_mutual_infos", "macsat.channel", "mac_mutual_infos", None),
    ("jointde.de_iterate", "macsat.jointde", "de_iterate", None),
    ("jointde.de_run", "macsat.jointde", "de_run", _iterations),
    ("jointde.bp_threshold", "macsat.jointde", "bp_threshold", _probes),
    ("coupled.update_position", "macsat.coupled", "_Engine.update_position", None),
    ("coupled.coupled_run", "macsat.coupled", "coupled_run", _iterations),
    ("gexit.lattice_build", "macsat.gexit", "KernelLattice.__init__", None),
    ("gexit.kernel_lattice", "macsat.gexit", "kernel_lattice", None),
    ("gexit.lattice_value", "macsat.gexit", "KernelLattice.value", None),
    ("mcsim.build_graphs", "macsat.mcsim", "build_regular", None),
    ("mcsim.build_graphs", "macsat.mcsim", "build_joint", None),
    ("mcsim.encoder_build", "macsat.mcsim", "Gf2Encoder.__init__", None),
    ("mcsim.encode", "macsat.mcsim", "Gf2Encoder.encode", None),
    ("mcsim.decode_frame", "macsat.mcsim", "_decode_frame", _frame_iterations),
    ("mcsim.check_update", "macsat.mcsim", "_CodeSide.check_update", None),
    ("mcsim.fn_outputs", "macsat.mcsim", "_fn_outputs", None),
]


# metric -> (span counted, base span): 1 - (calls of the counted span made
# directly by the base span) / (base calls), the share of base calls that did
# without it
RATIOS = {
    "channel.fn_cache.hit_ratio": ("channel.fn_build", "channel.fn_operator"),
    "coupled.memo.hit_ratio": ("channel.fn_apply", "coupled.update_position"),
    "gexit.lattice_cache.hit_ratio": ("gexit.lattice_build", "gexit.kernel_lattice"),
}

# read from the trace of the set-up phase
SETUP_METRICS = [
    "densities.boxplus_table.build_s",
    "densities.boxplus_table.entries",
    "mcsim.build_graphs.self_s",
    "mcsim.encoder_build.self_s",
]

# read from the trace of the workload's units
UNIT_METRICS = [
    "densities.conv_cn.calls",
    "densities.conv_cn.self_s",
    "densities.magnitude_op.calls",
    "densities.magnitude_op.self_s",
    "densities.conv_vn.calls",
    "densities.conv_vn.self_s",
    "densities.mix.calls",
    "densities.mix.self_s",
    "channel.fn_apply.calls",
    "channel.fn_apply.self_s",
    "channel.fn_build.calls",
    "channel.fn_build.self_s",
    "channel.fn_build.index_entries",
    "channel.fn_cache.hit_ratio",
    "channel.mac_mutual_infos.calls",
    "channel.mac_mutual_infos.self_s",
    "jointde.de_iterate.calls",
    "jointde.de_iterate.self_s",
    "jointde.de_run.calls",
    "jointde.de_run.iters",
    "jointde.bp_threshold.probes",
    "coupled.update_position.calls",
    "coupled.update_position.self_s",
    "coupled.memo.hit_ratio",
    "coupled.coupled_run.iters",
    "gexit.lattice_build.calls",
    "gexit.lattice_build.self_s",
    "gexit.lattice_cache.hit_ratio",
    "gexit.lattice_value.calls",
    "gexit.lattice_value.self_s",
    "mcsim.encode.calls",
    "mcsim.encode.self_s",
    "mcsim.decode_frame.calls",
    "mcsim.decode_frame.self_s",
    "mcsim.decode_frame.iters",
    "mcsim.check_update.self_s",
    "mcsim.fn_outputs.self_s",
]

# stat -> unit; counts summed by a result hook (`iters`, `probes`) are totals,
# entry counts are those of the largest table or operator built
UNITS = {
    "calls": "count",
    "self_s": "s",
    "build_s": "s",
    "iters": "count",
    "probes": "count",
    "entries": "count",
    "index_entries": "count",
    "hit_ratio": "ratio",
}


def metric_unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def _value(tracer, metric: str) -> float:
    if metric in RATIOS:
        counted, base = RATIOS[metric]
        n = tracer.stats[base].calls
        return 1.0 - tracer.stats[counted].parents.get(base, 0) / n if n else 0.0
    span, stat = metric.rsplit(".", 1)
    st = tracer.stats[span]
    if stat in ("entries", "index_entries"):
        return st.largest
    return {"calls": st.calls, "self_s": st.self_s, "build_s": st.total_s}.get(stat, st.counted)


def layer_metrics(setup_tracer, unit_tracer) -> tuple[dict, list]:
    """(metric name -> (value, unit), names whose spans are absent)."""
    out, absent = {}, []
    for names, tracer in ((SETUP_METRICS, setup_tracer), (UNIT_METRICS, unit_tracer)):
        for metric in names:
            spans = RATIOS.get(metric, (metric.rsplit(".", 1)[0],))
            if any(s in tracer.absent for s in spans):
                absent.append(metric)
            else:
                out[metric] = (_value(tracer, metric), metric_unit(metric))
    return out, absent
