"""Span tracer for spinzero, installed from outside the package.

`Tracer.install()` replaces every public function of the six modules, and
every public method of their classes, by a wrapper that records a span
(name, start, end, parent span, op id).  A function is replaced in every
module namespace that binds it, so `cli`'s own `embed` and the package-level
re-exports are traced too.  `uninstall()` puts the originals back.

Spans stay in memory until `write()`.  Counts that describe the work
(paths, projections, bytes) are derived from each call's arguments and
return value, never from the package's internals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from time import perf_counter

PACKAGE = "spinzero"
LAYERS = ("qcore", "states", "observables", "measurement", "scenario", "cli")
ZERO_TOL = 1e-14   # a path with probability at or below this is impossible

CONSTRUCTORS = {f"observables.{f}" for f in
                ("pauli", "embed", "observable_f", "observable_g", "from_matrix")}
ENUMERATORS = {f"measurement.{f}" for f in
               ("sequence_distribution", "joint_distribution", "sample")}
PROTOCOL = {f"scenario.{f}" for f in
            ("run_claimed_protocol", "assign_claimed_value", "check_eta_candidate",
             "dirac_audit")}

# (per-layer metric, unit); the names are cited by later changes, keep them.
COUNT_METRICS = (
    ("qcore.hermitian_eigen.calls", "count"),
    ("qcore.commutator.calls", "count"),
    ("states.calls", "count"),
    ("observables.construct.calls", "count"),
    ("observables.construct.bytes", "B"),
    ("observables.matrix.calls", "count"),
    ("observables.check_invariance.trials", "count"),
    ("measurement.collapse.calls", "count"),
    ("measurement.born.calls", "count"),
    ("measurement.enumerate.calls", "count"),
    ("measurement.paths", "count"),
    ("measurement.projections", "count"),
    ("measurement.bytes_computed", "B"),
    ("measurement.useful_path_ratio", "ratio"),
    ("scenario.parse.calls", "count"),
    ("scenario.parse.bytes", "B"),
    ("cli.main.calls", "count"),
    ("cli.failures", "count"),
)
TIME_METRICS = tuple((f"{layer}.self_ms", "ms") for layer in LAYERS) + (
    ("qcore.hermitian_eigen.self_ms", "ms"),
    ("observables.construct.self_ms", "ms"),
    ("observables.matrix.self_ms", "ms"),
    ("observables.is_function_of.self_ms", "ms"),
    ("observables.joint_eigenspaces.self_ms", "ms"),
    ("observables.check_invariance.self_ms", "ms"),
    ("measurement.collapse.self_ms", "ms"),
    ("measurement.born.self_ms", "ms"),
    ("measurement.enumerate.self_ms", "ms"),
    ("scenario.parse.self_ms", "ms"),
    ("scenario.run.self_ms", "ms"),
    ("scenario.protocol.self_ms", "ms"),
)


def _observable_bytes(obs) -> int:
    return sum(basis.nbytes for _, basis in obs.branches)


def _enumeration_work(program) -> dict:
    """Work of enumerating every outcome string of `program` by chained
    dense projection: one projection per node of the outcome tree, each
    streaming its branch basis twice (B^dagger v, then B c) and reading and
    writing one state vector.  Bytes are computed, not measured."""
    frontier, projections, nbytes = 1, 0, 0
    for obs in program:
        per_node = sum(2 * basis.nbytes + 2 * basis.shape[0] * 16 for _, basis in obs.branches)
        projections += frontier * len(obs.branches)
        nbytes += frontier * per_node
        frontier *= len(obs.branches)
    return {"paths": frontier, "projections": projections, "bytes_computed": nbytes}


def _info(name: str, args: dict, result):
    """Counts derived from one call's arguments and return value."""
    if name in CONSTRUCTORS:
        return {"bytes": _observable_bytes(result)}
    if name in ENUMERATORS:
        program = args.get("program", args.get("observables"))
        info = _enumeration_work(program)
        if name != "measurement.sample":
            info["useful"] = sum(1 for _, p in result.entries if p > ZERO_TOL)
            info["reported"] = len(result.entries)
        return info
    if name == "observables.check_invariance":
        return {"trials": result.trials}
    if name == "scenario.parse_scenario":
        return {"bytes": len(args["text"].encode("utf-8"))}
    if name == "cli.main":
        return {"failed": result != 0}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, info]
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, fn,
                                        self.wrap(f"{layer}.{attr}.{meth}", fn))
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, attr, obj, wrappers[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def wrap(self, name: str, fn):
        """`fn` recording a span named `name` on every call."""
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)
        derive = (name in CONSTRUCTORS or name in ENUMERATORS or name in (
            "observables.check_invariance", "scenario.parse_scenario", "cli.main"))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                record[5] = {"raised": True}
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if derive:
                record[5] = _info(name, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")

    def per_op(self) -> list[dict]:
        """Per-layer metrics of each traced op, in op order."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent is not None:
                child[parent] += end - start
        ops: dict = {}
        for k, (name, start, end, _, op, info) in enumerate(spans):
            if op is None:
                continue
            m = ops.setdefault(op, _empty_metrics())
            info = info or {}
            self_ms = ((end - start) - child[k]) * 1e3
            layer = name.partition(".")[0]
            if layer in LAYERS:
                m[f"{layer}.self_ms"] += self_ms
            if layer == "states":
                m["states.calls"] += 1
            if name in _SELF:
                m[_SELF[name]] += self_ms
            if name in _CALLS:
                m[_CALLS[name]] += 1
            if name in CONSTRUCTORS and not self._inside(k, CONSTRUCTORS):
                m["observables.construct.calls"] += 1
                m["observables.construct.bytes"] += info.get("bytes", 0)
            if name in ENUMERATORS:
                for field in ("paths", "projections", "bytes_computed"):
                    m[f"measurement.{field}"] += info.get(field, 0)
                m["_useful"] += info.get("useful", 0)
                m["_reported"] += info.get("reported", 0)
            if name == "observables.check_invariance":
                m["observables.check_invariance.trials"] += info.get("trials", 0)
            if name == "scenario.parse_scenario":
                m["scenario.parse.bytes"] += info.get("bytes", 0)
            if name == "cli.main" and (info.get("raised") or info.get("failed")):
                m["cli.failures"] += 1
        result = []
        for op in sorted(ops):
            m = ops[op]
            useful, reported = m.pop("_useful"), m.pop("_reported")
            m["measurement.useful_path_ratio"] = useful / reported if reported else 0.0
            result.append(m)
        return result

    def _inside(self, k: int, names) -> bool:
        parent = self.spans[k][3]
        while parent is not None:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False


# Span name -> the self-time metric it adds to, and the call counter it bumps.
_SELF = {
    "qcore.hermitian_eigen": "qcore.hermitian_eigen.self_ms",
    "observables.SpectralObservable.matrix": "observables.matrix.self_ms",
    "observables.is_function_of": "observables.is_function_of.self_ms",
    "observables.joint_eigenspaces": "observables.joint_eigenspaces.self_ms",
    "observables.check_invariance": "observables.check_invariance.self_ms",
    "measurement.collapse": "measurement.collapse.self_ms",
    "measurement.born_distribution": "measurement.born.self_ms",
    "scenario.parse_scenario": "scenario.parse.self_ms",
    "scenario.parse_scenario_file": "scenario.parse.self_ms",
    "scenario.run_scenario": "scenario.run.self_ms",
    **{name: "observables.construct.self_ms" for name in CONSTRUCTORS},
    **{name: "measurement.enumerate.self_ms" for name in ENUMERATORS},
    **{name: "scenario.protocol.self_ms" for name in PROTOCOL},
}
_CALLS = {
    "qcore.hermitian_eigen": "qcore.hermitian_eigen.calls",
    "qcore.commutator": "qcore.commutator.calls",
    "observables.SpectralObservable.matrix": "observables.matrix.calls",
    "measurement.collapse": "measurement.collapse.calls",
    "measurement.born_distribution": "measurement.born.calls",
    "scenario.parse_scenario": "scenario.parse.calls",
    "cli.main": "cli.main.calls",
    **{name: "measurement.enumerate.calls" for name in ENUMERATORS},
}


def _empty_metrics() -> dict:
    m = {name: 0 for name, _ in COUNT_METRICS}
    m.update({name: 0.0 for name, _ in TIME_METRICS})
    m.update({"_useful": 0, "_reported": 0})
    return m


def summarize(per_op: list[dict], factors: list[float]) -> tuple[dict, list[str]]:
    """Median times over the traced ops, each op's times multiplied by its
    factor in `factors`, and the counts, which must be the same for every
    op; returns (metrics, mismatches)."""
    if len(factors) != len(per_op):
        raise ValueError(f"{len(factors)} speed factors for {len(per_op)} traced ops")
    errors = []
    out = {}
    for name, _ in COUNT_METRICS:
        values = {m[name] for m in per_op}
        if len(values) != 1:
            errors.append(f"count {name} differs between ops: {sorted(values)}")
        out[name] = per_op[0][name]
    for name, _ in TIME_METRICS:
        out[name] = statistics.median(m[name] * f for m, f in zip(per_op, factors))
    return out, errors

