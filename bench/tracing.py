"""Spans around menet's public functions, recorded from outside the program.

Inside `with tracer.installed():` each public function of the traced
modules is replaced by a wrapper, in every menet module that holds a
reference to it, so calls between modules are seen too; on leaving, the
originals are put back. Spans
(name, start, end, parent, attributes) are kept in memory per pass and
turned into per-layer metrics by `layer_metrics`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import sys
import time

MODULES = ("cli", "state", "separability", "network", "inference", "classify")
SUBCOMMANDS = (
    "graph", "extract", "reconstruct", "marginal", "conditional", "mle", "measure", "classify", "verify",
)

CHAIN = ("inference.chain_marginal_ratio", "inference.chain_prefix_marginal_ratio", "inference.mle_chain")
BRUTE = (
    "inference.marginal_ratio",
    "inference.marginal_probability",
    "inference.mle_brute_force",
    "inference.conditional_probability",
)

# (metric, unit, better); the names BENCHMARK.json lists under per_layer.
PER_LAYER = (
    [("cli.import_s", "s", "lower")]
    + [(f"cli.cmd_s.{sub}", "s", "lower") for sub in SUBCOMMANDS]
    + [
        ("state.load_state.s", "s", "lower"),
        ("state.save_state.s", "s", "lower"),
        ("state.apply_local_basis_change.calls", "count", "lower"),
        ("state.apply_local_basis_change.s", "s", "lower"),
        ("separability.conditionally_separable.calls", "count", "lower"),
        ("separability.conditionally_separable.s", "s", "lower"),
        ("separability.is_separable.calls", "count", "lower"),
        ("separability.is_separable.s", "s", "lower"),
        ("network.build_graph.calls", "count", "lower"),
        ("network.build_graph.s", "s", "lower"),
        ("network.extract_men.s", "s", "lower"),
        ("network.extract_men.self_s", "s", "lower"),
        ("network.normalization_modulus.calls", "count", "lower"),
        ("network.normalization_modulus.s", "s", "lower"),
        ("network.reconstruct_state.s", "s", "lower"),
        ("network.load_model.s", "s", "lower"),
        ("network.save_model.s", "s", "lower"),
        ("network.model_bytes", "bytes", "lower"),
        ("network.verify_perfect_map.s", "s", "lower"),
        ("network.check_graphoid_axioms.s", "s", "lower"),
        ("inference.chain.calls", "count", "lower"),
        ("inference.chain.s", "s", "lower"),
        ("inference.chain.ns_per_qubit", "ns", "lower"),
        ("inference.chain.op_count", "count", "lower"),
        ("inference.brute.s", "s", "lower"),
        ("inference.brute.op_count", "count", "lower"),
        ("classify.classify.s", "s", "lower"),
        ("classify.topology_census.calls", "count", "lower"),
        ("classify.topology_census.s", "s", "lower"),
        ("classify.census_per_cmd", "count", "lower"),
        ("classify.census.bases", "count", "lower"),
        ("classify.census.accepted_ratio", "ratio", "higher"),
        ("tracing.overhead_s", "s", "lower"),
    ]
)

NAME, START, END, PARENT, ATTRS = range(5)
WITH_ATTRS = CHAIN + (
    "inference.marginal_ratio", "inference.mle_brute_force", "network.load_model",
    "network.save_model", "classify.topology_census",
)


def _attrs(name: str, args, kwargs, result) -> dict | None:
    """Counts read off a call's arguments or result, outside its span."""
    if name in CHAIN:
        return {"n": args[0].num_qubits, "ops": result.op_count}
    if name in ("inference.marginal_ratio", "inference.mle_brute_force"):
        return {"ops": result.op_count}
    if name in ("network.load_model", "network.save_model"):
        return {"bytes": os.path.getsize(kwargs.get("path", args[-1]))}
    if name == "classify.topology_census":
        return {"bases": result.bases_sampled, "accepted": result.accepted}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        with_attrs = name in WITH_ATTRS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # the subcommand is recorded up front: a failing command still counts
            cmd = {"cmd": (args[0] if args else kwargs["argv"])[0]} if name == "cli.main" else None
            span = [name, 0, 0, stack[-1] if stack else -1, cmd]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if with_attrs:
                span[ATTRS] = _attrs(name, args, kwargs, result)
            return result

        return traced

    def _install(self) -> None:
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"menet.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "menet" or modname.startswith("menet.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def _uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    def take(self) -> list[list]:
        """Spans recorded since the last call, in call order."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer busy times and counts of one traced pass.

    A group's busy time counts only spans with no ancestor in the same
    group, so nested calls (conditional_probability -> marginal_ratio) are
    not counted twice. Self time is a span's duration less its children's.
    """
    dur, child = _durations(spans)
    by_name: dict[str, list[int]] = {}
    for k, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(k)

    def members(names):
        return [k for name in names for k in by_name.get(name, ())]

    def busy(names) -> float:
        total = 0.0
        for k in members(names):
            p = spans[k][PARENT]
            while p >= 0 and spans[p][NAME] not in names:
                p = spans[p][PARENT]
            if p < 0:
                total += dur[k]
        return total

    def attr_sum(names, key) -> int:
        return sum(spans[k][ATTRS][key] for k in members(names) if spans[k][ATTRS])  # None: raised

    out: dict[str, float] = {}
    for name in (
        "state.load_state", "state.save_state", "state.apply_local_basis_change",
        "separability.conditionally_separable", "separability.is_separable",
        "network.build_graph", "network.extract_men", "network.normalization_modulus",
        "network.reconstruct_state", "network.load_model", "network.save_model",
        "network.verify_perfect_map", "network.check_graphoid_axioms",
        "classify.classify", "classify.topology_census",
    ):
        out[f"{name}.calls"] = len(members((name,)))
        out[f"{name}.s"] = busy((name,))
    out["network.extract_men.self_s"] = sum((dur[k] - child[k] for k in members(("network.extract_men",))), 0.0)
    out["network.model_bytes"] = attr_sum(("network.load_model", "network.save_model"), "bytes")

    out["inference.chain.calls"] = len(members(CHAIN))
    out["inference.chain.s"] = busy(CHAIN)
    qubits = attr_sum(CHAIN, "n")
    out["inference.chain.ns_per_qubit"] = out["inference.chain.s"] * 1e9 / qubits if qubits else 0.0
    out["inference.chain.op_count"] = attr_sum(CHAIN, "ops")
    out["inference.brute.s"] = busy(BRUTE)
    out["inference.brute.op_count"] = attr_sum(("inference.marginal_ratio", "inference.mle_brute_force"), "ops")

    bases = attr_sum(("classify.topology_census",), "bases")
    out["classify.census.bases"] = bases
    accepted = attr_sum(("classify.topology_census",), "accepted")
    out["classify.census.accepted_ratio"] = accepted / bases if bases else 0.0

    # census runs inside each `menet classify`, the largest over the pass
    per_cmd = {k: 0 for k in members(("cli.main",)) if spans[k][ATTRS]["cmd"] == "classify"}
    for k in members(("classify.topology_census",)):
        p = spans[k][PARENT]
        while p >= 0 and p not in per_cmd:
            p = spans[p][PARENT]
        if p >= 0:
            per_cmd[p] += 1
    out["classify.census_per_cmd"] = max(per_cmd.values(), default=0)

    for sub in SUBCOMMANDS:
        out[f"cli.cmd_durations.{sub}"] = [
            dur[k] for k in members(("cli.main",)) if spans[k][ATTRS]["cmd"] == sub
        ]
    return out


def _durations(spans: list[list]) -> tuple[list[float], list[float]]:
    """Each span's duration and the summed durations of its direct children, in s."""
    dur = [(s[END] - s[START]) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[k]
    return dur, child


def self_times(spans: list[list]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total duration s, total self time s) for one pass."""
    dur, child = _durations(spans)
    table: dict[str, list] = {}
    for k, s in enumerate(spans):
        row = table.setdefault(s[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[k]
        row[2] += dur[k] - child[k]
    return {name: tuple(row) for name, row in table.items()}


def summarize(passes: list[dict], import_s: list[float], overhead_s: float) -> dict[str, float]:
    """Median over traced passes of each per-layer metric."""
    out = {"cli.import_s": statistics.median(import_s)}
    for sub in SUBCOMMANDS:
        pooled = [d for p in passes for d in p[f"cli.cmd_durations.{sub}"]]
        out[f"cli.cmd_s.{sub}"] = statistics.median(pooled) if pooled else 0.0
    for name, unit, _better in PER_LAYER:
        if name not in out and name != "tracing.overhead_s":
            # counts repeat exactly from pass to pass; median_low keeps them whole
            pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
            out[name] = pick([p[name] for p in passes])
    out["tracing.overhead_s"] = overhead_s
    return out
