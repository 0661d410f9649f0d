"""Command-line front end.

Subcommands: `run` executes a .qsc scenario file, `refute` runs the
self-contained five-stage audit pipeline, `sample` Monte-Carlo-samples a
scenario's measurement program, and `audit-function` / `audit-invariance`
run the two standalone audits.  Reports are deterministic for a fixed seed;
exit codes are the only pass/fail channel (0 ok, 1 failed assertion or
verdict, 2 parse or argument error, 3 runtime error).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import product

from .qcore import (
    DEFAULT_TOLERANCES,
    CapacityError,
    DimensionMismatchError,
    NonHermitianError,
    NonUnitaryError,
    inner,
)
from .states import basis_ket, eta_tilde, spin_zero_basis
from .observables import (
    NonCommutingError,
    embed,
    invariance_residual,
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
    NonUnitaryError, OSError,
)

RECONSTRUCTION_NOTE = (
    "note: the spin-zero pair behind F and G is reconstructed from its two "
    "defining overlap checks (0 and 1/12 against |00++>); any rotation inside "
    "the spin-zero subspace passes the same checks, so branch-resolved values "
    "such as the 3/4 conditional depend on this choice of pair.")


# ---------------------------------------------------------------------------
# number formatting

def rational_label(p: float) -> str | None:
    """Reduced p/q annotation when p is within 1e-12 of a rational with
    denominator at most 144, else None."""
    if not math.isfinite(p):
        return None
    for q in range(1, 145):
        a = round(p * q)
        if abs(p - a / q) <= 1e-12:
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

def cmd_run(ns: argparse.Namespace):
    scenario = parse_scenario_file(ns.input)
    result = run_scenario(scenario, assert_tol=ns.tol["assert"],
                          zero_tol=ns.tol["zero"], norm_tol=ns.tol["norm"])
    report = {
        "command": "run",
        "input": ns.input,
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


def cmd_refutation(ns: argparse.Namespace):
    pair = spin_zero_basis()
    ket = basis_ket("00++")
    state = eta_tilde()

    phi1_overlap_sq = abs(inner(ket, pair.phi1)) ** 2
    phi0_overlap = abs(inner(ket, pair.phi0))
    stage1 = {
        "name": "spin-zero reconstruction overlaps",
        "phi1_overlap_sq": phi1_overlap_sq,
        "phi0_overlap": phi0_overlap,
        "passed": abs(phi1_overlap_sq - 1.0 / 12.0) <= 1e-12 and phi0_overlap <= 1e-12,
    }

    protocol = run_claimed_protocol(state, (1, 1, 1, 1),
                                    corr_tol=ns.tol["corr"], zero_tol=ns.tol["zero"])
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

    _, audit = cmd_audit_function(ns)
    stage3 = {
        "name": "functional dependence on single-site outcomes",
        "is_function": audit["is_function"],
        "witness": audit["witness"],
        "passed": audit["passed"],
    }

    _, invariance = cmd_audit_invariance(ns)
    stage4 = {
        "name": "rotation invariance (equal yes, per-site no)",
        "results": invariance["results"],
        "passed": invariance["passed"],
    }

    corr = correlation_check(state, embed(observable_f(), [1, 2, 3, 4], 8),
                             embed(observable_g(), [5, 6, 7, 8], 8),
                             corr_tol=ns.tol["corr"], zero_tol=ns.tol["zero"])
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
        "stages": [{"index": k + 1, **st} for k, st in enumerate(stages)],
        "note": RECONSTRUCTION_NOTE,
        "failed_stage": failed[0] if failed else None,
        "passed": not failed,
    }
    return (0 if not failed else 1), report


def _render_refutation(report) -> list[str]:
    lines = ["collective-measurement refutation audit"]
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
            body = "; ".join(_invariance_text(r) for r in st["results"])
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


def cmd_sample(ns: argparse.Namespace):
    scenario = parse_scenario_file(ns.input)
    current = start = None
    program_names: list[str] = []
    for st in scenario.statements:
        if isinstance(st, StateStmt):
            current = st
        elif isinstance(st, MeasureStmt):
            if start is None:
                start = current
            elif current is not start:
                raise ScenarioRuntimeError(
                    f"line {st.line}: state {current.name!r} (line {current.line}) is bound "
                    "between measure lines; sample draws one chained program from one state")
            program_names.extend(st.names)
    if start is None:
        raise ScenarioRuntimeError("scenario contains no measure line to sample")
    state = scenario.states[start.name]
    program = [scenario.observables[name] for name in program_names]
    exact = sequence_distribution(state, program, norm_tol=ns.tol["norm"])
    counts = _draw_counts(exact.entries, ns.trials, ns.seed)
    rows = []
    for label, p in exact.entries:
        count = counts.get(label, 0)
        freq = count / ns.trials
        sigma = math.sqrt(p * (1.0 - p) / ns.trials)
        if sigma > 0.0:
            deviation = abs(freq - p) / sigma
        else:
            deviation = 0.0 if freq == p else math.inf
        rows.append({"outcome": outcome_text(label), "probability": p,
                     "count": count, "frequency": freq,
                     "sigma_deviation": deviation})
    report = {
        "command": "sample",
        "input": ns.input,
        "state": start.name,
        "observables": program_names,
        "trials": ns.trials,
        "seed": ns.seed,
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


def cmd_audit_function(ns: argparse.Namespace):
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


def cmd_audit_invariance(ns: argparse.Namespace):
    """F and G against the generators of equal and of per-site rotations.
    Invariant means a largest commutator entry of at most `--tol inv`; the
    audit passes when both are invariant under equal rotations and neither
    is under per-site ones."""
    results = []
    for pattern, obs in product(("equal", "per_site"), (observable_f(), observable_g())):
        residual, generator = invariance_residual(obs, pattern)
        results.append({"observable": obs.name, "pattern": pattern,
                        "max_deviation": residual, "invariant": residual <= ns.tol["inv"],
                        "generator": generator})
    passed = all(r["invariant"] == (r["pattern"] == "equal") for r in results)
    report = {
        "command": "audit-invariance",
        "results": results,
        "passed": passed,
    }
    return (0 if passed else 1), report


def _invariance_text(result) -> str:
    kind = "equal" if result["pattern"] == "equal" else "per-site"
    return (f"{result['observable']} under {kind} rotations: {result['max_deviation']:.3e} "
            f"at {result['generator']} -> "
            f"{'invariant' if result['invariant'] else 'NOT invariant'}")


def _render_audit_invariance(report) -> list[str]:
    lines = ["rotation-invariance audit (largest commutator entry with the SU(2) generators)"]
    lines += [f"  {_invariance_text(r)}" for r in report["results"]]
    lines.append(f"verdict: {'PASS' if report['passed'] else 'FAIL'}")
    return lines


# ---------------------------------------------------------------------------
# argument handling: one declaration feeds both the parser and the checks

# Count flag: default, lowest and highest accepted value, help.  numpy's
# multinomial draw takes the trial count as a signed 64-bit integer.
_COUNTS = {
    "seed": (0, 0, math.inf, "seed of the random draws"),
    "trials": (100_000, 1, 2**63 - 1, "Monte Carlo shots"),
}

# Command: (run, render, help, takes a scenario file, the count flags it
# reads, the `--tol` names it reads).
_COMMANDS = {
    "run": (cmd_run, _render_run, "run a scenario file",
            True, (), ("assert", "zero", "norm")),
    "refute": (cmd_refutation, _render_refutation, "run the built-in five-stage audit",
               False, (), ("corr", "zero", "inv")),
    "sample": (cmd_sample, _render_sample, "Monte Carlo sample a scenario's program",
               True, ("seed", "trials"), ("norm",)),
    "audit-function": (cmd_audit_function, _render_audit_function,
                       "functional-dependence audit of F", False, (), ()),
    "audit-invariance": (cmd_audit_invariance, _render_audit_invariance,
                         "rotation-invariance audit of F and G",
                         False, (), ("inv",)),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ValueError for a bad command line, so `main` returns 2."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="spinzero",
        description="Statevector measurement-semantics engine and protocol auditor")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, text, takes_file, counts, tolerances) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if takes_file:
            p.add_argument("input", help="scenario file (.qsc)")
        for flag in counts:
            default, _, _, hint = _COUNTS[flag]
            p.add_argument(f"--{flag}", type=int, default=default, help=hint)
        if tolerances:
            p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                           help=f"tolerance override; names: {', '.join(tolerances)}")
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _tolerances(pairs, names) -> dict[str, float]:
    """The defaults of `names`, overridden by `--tol NAME=VALUE` pairs."""
    tolerances = {name: DEFAULT_TOLERANCES[name] for name in names}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--tol expects NAME=VALUE, got {pair!r}")
        name, _, value = pair.partition("=")
        if name not in names:
            raise ValueError(f"unknown tolerance {name!r}; names: {', '.join(names)}")
        parsed = float(value)
        if not 0.0 < parsed < math.inf:
            raise ValueError(f"tolerance {name} must be positive and finite, got {value}")
        tolerances[name] = parsed
    return tolerances


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
        run, render, _, _, counts, tolerances = _COMMANDS[ns.command]
        ns.tol = _tolerances(getattr(ns, "tol", ()), tolerances)
        for flag in counts:
            _, low, high, _ = _COUNTS[flag]
            value = getattr(ns, flag)
            if value < low:
                raise ValueError(f"--{flag} must be >= {low}")
            if value > high:
                raise ValueError(f"--{flag} must be <= {high}")
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    try:
        code, report = run(ns)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    if ns.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(render(report)))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
