"""Command-line front end.

Subcommands: `run` executes a .qsc scenario file, `refute` runs the
self-contained five-stage audit pipeline, `sample` Monte-Carlo-samples a
scenario's measurement program, and `audit-function` / `audit-invariance`
run the two standalone audits.  Reports are deterministic for a fixed seed;
exit codes are the only pass/fail channel (0 ok, 1 failed assertion or
verdict, 2 parse error, 3 runtime error).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from .qcore import (
    DEFAULT_TOLERANCES,
    CapacityError,
    ConvergenceError,
    DimensionMismatchError,
    NonHermitianError,
    NonUnitaryError,
    inner,
)
from .states import basis_ket, eta_tilde, spin_zero_basis
from .observables import (
    NonCommutingError,
    check_invariance,
    embed,
    observable_f,
    observable_g,
)
from .measurement import (
    OutcomeNotInSpectrumError,
    OverlappingSupportError,
    UnnormalizedStateError,
    ZeroProbabilityError,
    _draw_counts,
    correlation_check,
    sequence_distribution,
)
from .scenario import (
    MeasureStmt,
    ScenarioParseError,
    ScenarioRuntimeError,
    StateStmt,
    dirac_audit,
    parse_scenario_file,
    run_claimed_protocol,
    run_scenario,
)

_RUNTIME_ERRORS = (
    ScenarioRuntimeError, ZeroProbabilityError, OutcomeNotInSpectrumError,
    UnnormalizedStateError, OverlappingSupportError, NonCommutingError,
    DimensionMismatchError, CapacityError, NonHermitianError,
    NonUnitaryError, ConvergenceError, OSError,
)

_PER_SITE_VIOLATION = 1e-3   # a generic per-site rotation moves entries O(1)
_PER_SITE_QUORUM = 95        # out of 100 trials

RECONSTRUCTION_NOTE = (
    "note: the spin-zero pair behind F and G is reconstructed from its two "
    "defining overlap checks (0 and 1/12 against |00++>); any rotation inside "
    "the spin-zero subspace passes the same checks, so branch-resolved values "
    "such as the 3/4 conditional depend on this choice of pair.")


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    seed: int = 0
    trials: int = 100_000
    rotations: int = 100
    tolerances: dict[str, float] = field(default_factory=dict)
    format: str = "text"

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])


# ---------------------------------------------------------------------------
# number formatting

def rational_label(p: float, max_den: int = 144, tol: float = 1e-12) -> str | None:
    """Reduced p/q annotation when p is within tol of a rational with
    denominator at most max_den, else None."""
    if not math.isfinite(p):
        return None
    for q in range(1, max_den + 1):
        a = round(p * q)
        if abs(p - a / q) <= tol:
            g = math.gcd(int(a), q)
            num, den = int(a) // g, q // g
            return f"{num}/{den}" if den > 1 else f"{num}"
    return None


def format_probability(p: float) -> str:
    """12 significant digits, annotated with the exact rational when near one."""
    text = f"{p:.12g}"
    label = rational_label(p)
    if label is not None and label != text:
        return f"{text} (= {label})"
    return text


def outcome_text(value) -> str:
    if isinstance(value, tuple):
        if len(value) == 1:
            return outcome_text(value[0])
        if all(v in (1.0, -1.0) for v in value):
            return "".join("+" if v > 0 else "-" for v in value)
        return ",".join(outcome_text(v) for v in value)
    v = float(value)
    if v == int(v):
        return f"{int(v):+d}" if v != 0 else "0"
    return f"{v:.12g}"


def _distribution_rows(distribution) -> list[dict]:
    return [{"outcome": outcome_text(label), "probability": p}
            for label, p in distribution.entries]


# ---------------------------------------------------------------------------
# commands

def cmd_run(cfg: RunConfig):
    scenario = parse_scenario_file(cfg.input)
    result = run_scenario(scenario, assert_tol=cfg.tol("assert"),
                          zero_tol=cfg.tol("zero"), norm_tol=cfg.tol("norm"))
    report = {
        "command": "run",
        "input": cfg.input,
        "measurements": [
            {"observables": list(m.names),
             "outcomes": outcome_text(tuple(float(s) for s in m.signs)),
             "step_probabilities": list(m.step_probabilities),
             "joint_probability": m.joint_probability}
            for m in result.measurements],
        "assertions": [
            {"observable": a.observable,
             "outcome": outcome_text(float(a.sign)),
             "expected": f"{a.numerator}/{a.denominator}" if a.denominator != 1 else f"{a.numerator}",
             "expected_value": a.expected,
             "computed": a.computed,
             "passed": a.passed}
            for a in result.assertions],
        "reports": [
            {"observable": r.observable,
             "distribution": _distribution_rows(r.distribution)}
            for r in result.reports],
        "passed": result.passed,
    }
    if any(obs.name in ("F", "G") for obs in scenario.observables.values()):
        report["note"] = RECONSTRUCTION_NOTE
    return (0 if result.passed else 1), report


def _render_run(report) -> list[str]:
    lines = [f"scenario run: {report['input']}"]
    for m in report["measurements"]:
        lines.append(f"measure {', '.join(m['observables'])} outcomes {m['outcomes']}: "
                     f"joint probability {format_probability(m['joint_probability'])}")
        for name, p in zip(m["observables"], m["step_probabilities"]):
            lines.append(f"  {name}: step probability {format_probability(p)}")
    for a in report["assertions"]:
        status = "PASS" if a["passed"] else "FAIL"
        lines.append(f"assert_prob {a['observable']} {a['outcome']} = {a['expected']}: "
                     f"computed {format_probability(a['computed'])} ... {status}")
    for r in report["reports"]:
        lines.append(f"distribution of {r['observable']}:")
        for row in r["distribution"]:
            lines.append(f"  {row['outcome']}: {format_probability(row['probability'])}")
    if "note" in report:
        lines.append(report["note"])
    lines.append(f"result: {'PASS' if report['passed'] else 'FAIL'}")
    return lines


def _invariance_summary(obs, pattern: str, trials: int, seed: int, tol: float) -> dict:
    rep = check_invariance(obs, pattern=pattern, trials=trials, seed=seed, tol=tol)
    violations = sum(1 for d in rep.deviations if d > _PER_SITE_VIOLATION)
    return {"observable": obs.name, "pattern": pattern, "trials": rep.trials,
            "max_deviation": rep.max_deviation, "invariant": rep.invariant,
            "violations": violations}


def cmd_refutation(cfg: RunConfig):
    pair = spin_zero_basis()
    ket = basis_ket("00++")
    state = eta_tilde()
    f_obs = observable_f()
    g_obs = observable_g()

    phi1_overlap_sq = abs(inner(ket, pair.phi1)) ** 2
    phi0_overlap = abs(inner(ket, pair.phi0))
    stage1 = {
        "name": "spin-zero reconstruction overlaps",
        "phi1_overlap_sq": phi1_overlap_sq,
        "phi0_overlap": phi0_overlap,
        "passed": abs(phi1_overlap_sq - 1.0 / 12.0) <= 1e-12 and phi0_overlap <= 1e-12,
    }

    protocol = run_claimed_protocol(state, (1, 1, 1, 1),
                                    corr_tol=cfg.tol("corr"), zero_tol=cfg.tol("zero"))
    stage2 = {
        "name": "claimed protocol on the post-measurement state",
        "outcomes": outcome_text(tuple(float(s) for s in protocol.outcome_string)),
        "claimed_value": outcome_text(protocol.claimed_value)
        if isinstance(protocol.claimed_value, float) else protocol.claimed_value,
        "certainty": protocol.certainty,
        "verdict": protocol.verdict,
        "distribution": _distribution_rows(protocol.quantum_distribution),
        "passed": protocol.claimed_value == 1.0 and protocol.verdict == "refuted",
    }

    audit = dirac_audit()
    stage3 = {
        "name": "functional dependence on single-site outcomes",
        "is_function": audit.is_function,
        "witness": audit.witness,
        "passed": not audit.is_function,
    }

    inv_tol = cfg.tol("inv")
    rot = cfg.rotations
    equal_f = _invariance_summary(f_obs, "equal", rot, cfg.seed, inv_tol)
    equal_g = _invariance_summary(g_obs, "equal", rot, cfg.seed + 1, inv_tol)
    per_f = _invariance_summary(f_obs, "per_site", rot, cfg.seed + 2, inv_tol)
    per_g = _invariance_summary(g_obs, "per_site", rot, cfg.seed + 3, inv_tol)
    quorum = math.ceil(_PER_SITE_QUORUM * rot / 100)
    stage4 = {
        "name": "rotation invariance (equal yes, per-site no)",
        "results": [equal_f, equal_g, per_f, per_g],
        "passed": (equal_f["invariant"] and equal_g["invariant"]
                   and per_f["violations"] >= quorum and per_g["violations"] >= quorum),
    }

    corr = correlation_check(state, embed(f_obs, [1, 2, 3, 4], 8),
                             embed(g_obs, [5, 6, 7, 8], 8),
                             corr_tol=cfg.tol("corr"), zero_tol=cfg.tol("zero"))
    stage5 = {
        "name": "correlation of the two collective observables",
        "perfectly_correlated": corr.perfectly_correlated,
        "max_conditional_certainty": corr.max_conditional_certainty,
        "passed": not corr.perfectly_correlated,
    }

    stages = [stage1, stage2, stage3, stage4, stage5]
    failed = [k + 1 for k, st in enumerate(stages) if not st["passed"]]
    report = {
        "command": "refute",
        "seed": cfg.seed,
        "rotations": rot,
        "stages": [{"index": k + 1, **st} for k, st in enumerate(stages)],
        "note": RECONSTRUCTION_NOTE,
        "failed_stage": failed[0] if failed else None,
        "passed": not failed,
    }
    return (0 if not failed else 1), report


def _render_refutation(report) -> list[str]:
    lines = [f"collective-measurement refutation audit (seed {report['seed']}, "
             f"{report['rotations']} rotations per pattern)"]
    for st in report["stages"]:
        status = "PASS" if st["passed"] else "FAIL"
        head = f"stage {st['index']} {st['name']}: "
        if st["index"] == 1:
            body = (f"|<00++|phi1>|^2 = {format_probability(st['phi1_overlap_sq'])}, "
                    f"|<00++|phi0>| = {format_probability(st['phi0_overlap'])}")
        elif st["index"] == 2:
            dist = ", ".join(f"P(F={row['outcome']})={format_probability(row['probability'])}"
                             for row in st["distribution"])
            body = (f"claimed F={st['claimed_value']} after outcomes {st['outcomes']}; "
                    f"{dist}; verdict {st['verdict']}")
        elif st["index"] == 3:
            body = f"is_function={'true' if st['is_function'] else 'false'}"
            if st["witness"]:
                body += f"; witness {st['witness']}"
        elif st["index"] == 4:
            parts = []
            for r in st["results"]:
                if r["pattern"] == "equal":
                    parts.append(f"{r['observable']} equal max dev {r['max_deviation']:.3e}"
                                 f" ({'invariant' if r['invariant'] else 'NOT invariant'})")
                else:
                    parts.append(f"{r['observable']} per-site violations "
                                 f"{r['violations']}/{r['trials']}")
            body = "; ".join(parts)
        else:
            body = (f"perfectly_correlated="
                    f"{'true' if st['perfectly_correlated'] else 'false'}, "
                    f"max conditional certainty "
                    f"{format_probability(st['max_conditional_certainty'])}")
        lines.append(head + body + f" ... {status}")
    lines.append(report["note"])
    if report["passed"]:
        lines.append("refutation verified: all stages passed")
    else:
        lines.append(f"FAILED at stage {report['failed_stage']}")
    return lines


def cmd_sample(cfg: RunConfig):
    scenario = parse_scenario_file(cfg.input)
    current_name = None
    start_name = None
    program_names: list[str] = []
    for st in scenario.statements:
        if isinstance(st, StateStmt):
            current_name = st.name
        elif isinstance(st, MeasureStmt):
            if start_name is None:
                start_name = current_name
            program_names.extend(st.names)
    if start_name is None:
        raise ScenarioRuntimeError("scenario contains no measure line to sample")
    state = scenario.states[start_name]
    program = [scenario.observables[name] for name in program_names]
    exact = sequence_distribution(state, program, norm_tol=cfg.tol("norm"))
    counts = _draw_counts(exact.entries, cfg.trials, cfg.seed)
    rows = []
    for label, p in exact.entries:
        count = counts.get(label, 0)
        freq = count / cfg.trials
        sigma = math.sqrt(p * (1.0 - p) / cfg.trials)
        if sigma > 0.0:
            deviation = abs(freq - p) / sigma
        else:
            deviation = 0.0 if freq == p else math.inf
        rows.append({"outcome": outcome_text(label), "probability": p,
                     "count": count, "frequency": freq,
                     "sigma_deviation": deviation})
    report = {
        "command": "sample",
        "input": cfg.input,
        "state": start_name,
        "observables": program_names,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "rows": rows,
    }
    if any(obs.name in ("F", "G") for obs in program):
        report["note"] = RECONSTRUCTION_NOTE
    return 0, report


def _render_sample(report) -> list[str]:
    lines = [f"sampling {', '.join(report['observables'])} on state "
             f"{report['state']} ({report['trials']} trials, seed {report['seed']})"]
    for row in report["rows"]:
        lines.append(f"  {row['outcome']}: exact {format_probability(row['probability'])}, "
                     f"frequency {row['frequency']:.12g} "
                     f"({row['count']} counts, {row['sigma_deviation']:.3g} sigma)")
    if "note" in report:
        lines.append(report["note"])
    return lines


def cmd_audit_function(cfg: RunConfig):
    audit = dirac_audit()
    report = {
        "command": "audit-function",
        "observable": "F",
        "generators": ["sigma_z1", "sigma_z2", "sigma_x3", "sigma_x4"],
        "is_function": audit.is_function,
        "witness": audit.witness,
        "note": RECONSTRUCTION_NOTE,
        "passed": not audit.is_function,
    }
    return (0 if not audit.is_function else 1), report


def _render_audit_function(report) -> list[str]:
    lines = [f"functional-dependence audit: {report['observable']} vs "
             f"({', '.join(report['generators'])})",
             f"is_function: {'true' if report['is_function'] else 'false'}"]
    if report["witness"]:
        lines.append(f"witness: {report['witness']}")
    lines.append(report["note"])
    lines.append("verdict: " + ("PASS (not a function; individual outcomes cannot fix its value)"
                                if report["passed"] else "FAIL (reported as a function)"))
    return lines


def cmd_audit_invariance(cfg: RunConfig):
    inv_tol = cfg.tol("inv")
    rot = cfg.rotations
    results = [
        _invariance_summary(observable_f(), "equal", rot, cfg.seed, inv_tol),
        _invariance_summary(observable_g(), "equal", rot, cfg.seed + 1, inv_tol),
        _invariance_summary(observable_f(), "per_site", rot, cfg.seed + 2, inv_tol),
        _invariance_summary(observable_g(), "per_site", rot, cfg.seed + 3, inv_tol),
    ]
    quorum = math.ceil(_PER_SITE_QUORUM * rot / 100)
    passed = all(r["invariant"] for r in results if r["pattern"] == "equal") and \
        all(r["violations"] >= quorum for r in results if r["pattern"] == "per_site")
    report = {
        "command": "audit-invariance",
        "seed": cfg.seed,
        "rotations": rot,
        "results": results,
        "passed": passed,
    }
    return (0 if passed else 1), report


def _render_audit_invariance(report) -> list[str]:
    lines = [f"rotation-invariance audit (seed {report['seed']}, "
             f"{report['rotations']} trials per pattern)"]
    for r in report["results"]:
        if r["pattern"] == "equal":
            lines.append(f"  {r['observable']} under equal rotations: max deviation "
                         f"{r['max_deviation']:.3e} -> "
                         f"{'invariant' if r['invariant'] else 'NOT invariant'}")
        else:
            lines.append(f"  {r['observable']} under per-site rotations: "
                         f"{r['violations']}/{r['trials']} trials deviate above "
                         f"{_PER_SITE_VIOLATION:g} (max {r['max_deviation']:.3g})")
    lines.append(f"verdict: {'PASS' if report['passed'] else 'FAIL'}")
    return lines


_DISPATCH = {
    "run": (cmd_run, _render_run),
    "refute": (cmd_refutation, _render_refutation),
    "sample": (cmd_sample, _render_sample),
    "audit-function": (cmd_audit_function, _render_audit_function),
    "audit-invariance": (cmd_audit_invariance, _render_audit_invariance),
}


# ---------------------------------------------------------------------------
# argument handling

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinzero",
        description="Statevector measurement-semantics engine and protocol auditor")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=False):
        if with_input:
            p.add_argument("input", help="scenario file (.qsc)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=100_000)
        p.add_argument("--rotations", type=int, default=100,
                       help="rotation trials per invariance pattern")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help=f"tolerance override; names: {', '.join(sorted(DEFAULT_TOLERANCES))}")
        p.add_argument("--format", choices=("text", "json"), default="text")

    common(sub.add_parser("run", help="run a scenario file"), with_input=True)
    common(sub.add_parser("refute", help="run the built-in five-stage audit"))
    common(sub.add_parser("sample", help="Monte Carlo sample a scenario's program"),
           with_input=True)
    common(sub.add_parser("audit-function", help="functional-dependence audit of F"))
    common(sub.add_parser("audit-invariance", help="rotation-invariance audit of F and G"))
    return parser


def _parse_tolerances(pairs) -> dict[str, float]:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--tol expects NAME=VALUE, got {pair!r}")
        name, _, value = pair.partition("=")
        if name not in DEFAULT_TOLERANCES:
            raise ValueError(f"unknown tolerance {name!r}; "
                             f"names: {', '.join(sorted(DEFAULT_TOLERANCES))}")
        parsed = float(value)
        if not parsed > 0.0:
            raise ValueError(f"tolerance {name} must be positive, got {value}")
        overrides[name] = parsed
    return overrides


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        tolerances = _parse_tolerances(ns.tol)
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    for flag, value, low in (("--seed", ns.seed, 0), ("--trials", ns.trials, 1),
                             ("--rotations", ns.rotations, 1)):
        if value < low:
            print(f"argument error: {flag} must be >= {low}", file=sys.stderr)
            return 2
    cfg = RunConfig(command=ns.command, input=getattr(ns, "input", None),
                    seed=ns.seed, trials=ns.trials, rotations=ns.rotations,
                    tolerances=tolerances, format=ns.format)
    command, render = _DISPATCH[cfg.command]
    try:
        code, report = command(cfg)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    if cfg.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(render(report)))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
