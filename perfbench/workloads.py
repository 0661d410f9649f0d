"""The three benchmark workloads: seeded inputs, the timed op, and the oracle.

Each workload is built in two steps.  `prepare()` runs once per benchmark
run: it generates the inputs from the seed, writes any input file the
program reads into the work directory, and computes the expected outputs
with the benchmark's own dense linear algebra.  `load()` only reads what
`prepare()` wrote, so a fresh set-up probe process pays for nothing but
the program itself.  `op()` calls the package's public entry points and
returns their raw outputs plus the (start, end) of each command; `check()` compares
those outputs with the expectations and returns a list of mismatches.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from time import perf_counter

import numpy as np

TRIALS = 1_000_000   # `sample --trials`
ASSERT_TOL = 1e-9    # the CLI's default `assert` tolerance
PROB_TOL = 1e-12     # path and step probabilities against dense projectors
RECON_TOL = 1e-9     # eigen-reconstruction residual, the CLI's default `recon`

_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "-": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
}
_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _kron_all(factors) -> np.ndarray:
    out = np.ones((1,) * np.ndim(factors[0]), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def _site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Dense 2**n operator with `op` on 1-indexed `site`, identity elsewhere."""
    return _kron_all([op if k == site else np.eye(2) for k in range(1, n + 1)])


def _spin_zero_pair():
    """phi0 pairs sites (1,2)(3,4) into singlets; phi1 is its orthonormal
    partner in the four-qubit spin-zero subspace, from the (1,3)(2,4)
    pairing.  Written out from the singlet definition, not the package."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    phi0 = np.kron(singlet, singlet)
    crossed = np.einsum("ac,bd->abcd", singlet.reshape(2, 2),
                        singlet.reshape(2, 2)).reshape(16)
    phi1 = (2.0 * crossed - phi0) / math.sqrt(3.0)
    return phi0, phi1


def _close(a, b, tol) -> bool:
    return abs(float(a) - float(b)) <= tol


def call_cli(cli, argv):
    """Run `spinzero.cli.main(argv)` in-process; return (exit code, stdout).

    `cli.main` is looked up on every call so that a tracer's wrapper is used
    when one is installed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    setup_reps = 5

    def __init__(self, root: str, seed: int, workdir: str):
        self.root = root
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Generate the inputs and the expected outputs (not timed)."""

    def load(self) -> None:
        """Read the prepared inputs and import the package."""
        import spinzero
        from spinzero import cli
        self.sz = spinzero
        self.cli = cli

    def op(self):
        """Run each command of `self.argvs` in-process with JSON output."""
        outputs, times = {}, {}
        for cmd, argv in self.argvs.items():
            t0 = perf_counter()
            outputs[cmd] = call_cli(self.cli, argv + ["--format", "json"])
            times[cmd] = (t0, perf_counter())
        return outputs, times

    def check(self, outputs) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------

class PaperAudit(Workload):
    """The five shipped commands, as a reader of the paper runs them."""

    name = "paper-audit"

    def load(self):
        super().load()
        qsc = os.path.join(self.root, "scenarios", "refutation.qsc")
        self.argvs = {
            "refute": ["refute"],
            "run": ["run", qsc],
            "sample": ["sample", qsc, "--trials", str(TRIALS), "--seed", str(self.seed)],
            "audit-function": ["audit-function"],
            "audit-invariance": ["audit-invariance"],
        }

    def check(self, outputs):
        errors = []
        reports = {}
        for cmd, (code, text) in outputs.items():
            if code != 0:
                errors.append(f"{cmd}: exit code {code}")
            else:
                reports[cmd] = json.loads(text)
        if errors:
            return errors
        errors += check_refute_report(reports["refute"])

        run = reports["run"]
        computed = {(a["observable"], a["outcome"]): a["computed"] for a in run["assertions"]}
        expected = {("f", "+1"): 1 / 12, ("f", "-1"): 0.0, ("g", "+1"): 3 / 4, ("g", "-1"): 1 / 4}
        if set(computed) != set(expected) or not run["passed"]:
            errors.append(f"run: assertions {sorted(computed)}, passed={run['passed']}")
        else:
            errors += [f"run: P({obs}={sign}) = {computed[obs, sign]!r}, expected {p!r}"
                       for (obs, sign), p in expected.items()
                       if not _close(computed[obs, sign], p, ASSERT_TOL)]

        sample = reports["sample"]
        counts = sum(row["count"] for row in sample["rows"])
        if sample["trials"] != TRIALS or counts != TRIALS:
            errors.append(f"sample: {counts} counts for {sample['trials']} trials")
        # `post` is an eigenstate of sz1, sz2, sx3, sx4 with outcomes ++++.
        for row in sample["rows"]:
            p = 1.0 if row["outcome"] == "++++" else 0.0
            if not _close(row["probability"], p, PROB_TOL):
                errors.append(f"sample: P({row['outcome']}) = {row['probability']!r}")

        audit = reports["audit-function"]
        if audit["is_function"] is not False or not audit["passed"]:
            errors.append("audit-function: F reported as a function of the four spins")

        inv = reports["audit-invariance"]
        verdicts = [(r["pattern"], r["invariant"]) for r in inv["results"]]
        if not inv["passed"] or verdicts != [("equal", True)] * 2 + [("per_site", False)] * 2:
            errors.append(f"audit-invariance: verdicts {verdicts}, passed={inv['passed']}")
        return errors


def check_refute_report(report) -> list[str]:
    """The five stages of `spinzero refute` against the paper's numbers."""
    stages = {st["index"]: st for st in report["stages"]}
    dist = {row["outcome"]: row["probability"] for row in stages[2]["distribution"]}
    checks = [
        ("passed", report["passed"] is True),
        ("|<00++|phi1>|^2 = 1/12", _close(stages[1]["phi1_overlap_sq"], 1 / 12, ASSERT_TOL)),
        ("|<00++|phi0>| = 0", _close(stages[1]["phi0_overlap"], 0.0, ASSERT_TOL)),
        ("claimed F = +1", stages[2]["claimed_value"] == "+1"),
        ("certainty 1/12", _close(stages[2]["certainty"], 1 / 12, ASSERT_TOL)),
        ("P(F) = 1/12, 0, 11/12", set(dist) == {"+1", "-1", "0"}
         and _close(dist["+1"], 1 / 12, ASSERT_TOL) and _close(dist["-1"], 0.0, ASSERT_TOL)
         and _close(dist["0"], 11 / 12, ASSERT_TOL)),
        ("is_function false", stages[3]["is_function"] is False),
        ("invariance stage", stages[4]["passed"] is True),
        ("conditional certainty 3/4",
         _close(stages[5]["max_conditional_certainty"], 3 / 4, ASSERT_TOL)),
        ("not perfectly correlated", stages[5]["perfectly_correlated"] is False),
    ]
    return [f"refute: {what}" for what, ok in checks if not ok]


# ---------------------------------------------------------------------------

class WideRegister(Workload):
    """`run` then `sample` on a generated ten-qubit scenario."""

    name = "wide-register"
    setup_reps = 3
    N = 10          # MAX_QUBITS
    SIGMAS = 6      # sites that get a single-site sigma
    MEASURED = 5    # sigmas on the measure line: 2**5 outcome strings
    TERMS = 3       # product kets in the state

    @property
    def qsc(self):
        return os.path.join(self.workdir, f"wide-register-{self.seed}.qsc")

    def prepare(self):
        rng = np.random.default_rng([self.seed, 2])
        n = self.N
        magnitudes = (("1", 1.0), ("2", 2.0), ("3", 3.0),
                      ("sqrt(2)", math.sqrt(2)), ("sqrt(3)", math.sqrt(3)),
                      ("sqrt(5)", math.sqrt(5)))
        while True:
            terms, vec = [], np.zeros(2 ** n, dtype=complex)
            for _ in range(self.TERMS):
                chars = "".join(rng.choice(list("01+-"), n))
                text, mag = magnitudes[rng.integers(len(magnitudes))]
                neg, imag = rng.integers(2), rng.integers(2)
                coeff = mag * (-1) ** neg * (1j if imag else 1)
                terms.append(f"{'-' if neg else ''}{text}{'*i' if imag else ''} |{chars}>")
                vec += coeff * _kron_all([_KETS[c] for c in chars])
            if np.linalg.norm(vec) >= 0.5:
                break
        state = vec / np.linalg.norm(vec)

        sites = sorted(int(s) + 1 for s in rng.choice(n, self.SIGMAS, replace=False))
        axes = {s: "xyz"[rng.integers(3)] for s in sites}
        measured = [sites[k] for k in rng.permutation(self.SIGMAS)[:self.MEASURED]]
        f_sites = [int(s) + 1 for s in rng.permutation(n)[:4]]

        # Dense Kronecker-built projectors, one observable at a time; keep
        # the projected vector of every outcome prefix.
        prefixes = {"": state}
        frontier = [""]
        for s in measured:
            sigma = _site_operator(_PAULI[axes[s]], s, n)
            eye = np.eye(2 ** n)
            proj = {"+": (eye + sigma) / 2, "-": (eye - sigma) / 2}
            frontier = [t + ch for t in frontier for ch in "+-"]
            for t in frontier:
                prefixes[t] = proj[t[-1]] @ prefixes[t[:-1]]
            del sigma, eye, proj
        prob = {t: float(np.vdot(v, v).real) for t, v in prefixes.items()}
        self.path_probs = {t: prob[t] for t in frontier}
        likely = sorted(t for t in frontier if prob[t] >= 0.5 / len(frontier))
        outcome = likely[rng.integers(len(likely))]
        self.outcome = outcome
        self.step_probs = [prob[outcome[:k + 1]] / prob[outcome[:k]]
                           for k in range(len(outcome))]
        collapsed = prefixes[outcome] / math.sqrt(prob[outcome])
        self.f_probs = _f_distribution(collapsed, f_sites, n)

        lines = [f"# generated from seed {self.seed}", f"qubits {n}",
                 f"state psi = normalize({' + '.join(terms)})"]
        lines += [f"obs s{s} = sigma {axes[s]} {s}" for s in sites]
        lines.append(f"obs f = embed(F; {','.join(map(str, f_sites))}; {n})")
        lines.append(f"measure {', '.join(f's{s}' for s in measured)} outcomes {outcome}")
        lines.append("report f")
        with open(self.qsc, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def load(self):
        super().load()
        self.argvs = {
            "run": ["run", self.qsc],
            "sample": ["sample", self.qsc, "--trials", str(TRIALS), "--seed", str(self.seed)],
        }

    def check(self, outputs):
        errors = [f"{cmd}: exit code {code}" for cmd, (code, _) in outputs.items() if code != 0]
        if errors:
            return errors
        run = json.loads(outputs["run"][1])
        (meas,) = run["measurements"]
        if meas["outcomes"] != self.outcome:
            errors.append(f"run: outcomes {meas['outcomes']}, expected {self.outcome}")
        for k, (got, want) in enumerate(zip(meas["step_probabilities"], self.step_probs)):
            if not _close(got, want, PROB_TOL):
                errors.append(f"run: step {k + 1} probability {got!r}, expected {want!r}")
        if not _close(meas["joint_probability"], np.prod(self.step_probs), PROB_TOL):
            errors.append(f"run: joint probability {meas['joint_probability']!r}")
        (report,) = run["reports"]
        got = {row["outcome"]: row["probability"] for row in report["distribution"]}
        if set(got) != set(self.f_probs) or any(
                not _close(got[k], p, PROB_TOL) for k, p in self.f_probs.items()):
            errors.append(f"run: report f {got}, expected {self.f_probs}")

        sample = json.loads(outputs["sample"][1])
        rows = {row["outcome"]: row for row in sample["rows"]}
        if set(rows) != set(self.path_probs):
            errors.append(f"sample: {len(rows)} outcome strings, expected {len(self.path_probs)}")
        else:
            errors += [f"sample: P({k}) = {rows[k]['probability']!r}, expected {p!r}"
                       for k, p in self.path_probs.items()
                       if not _close(rows[k]["probability"], p, PROB_TOL)]
        counts = sum(row["count"] for row in sample["rows"])
        if counts != TRIALS:
            errors.append(f"sample: {counts} counts for {TRIALS} trials")
        return errors


def _f_distribution(state, f_sites, n) -> dict[str, float]:
    """Born probabilities of F embedded on `f_sites` (F's qubit k on register
    site f_sites[k]); keys as the CLI prints them."""
    phi0, phi1 = _spin_zero_pair()
    rest = [s for s in range(1, n + 1) if s not in f_sites]
    block = state.reshape([2] * n).transpose([s - 1 for s in f_sites + rest])
    block = block.reshape(16, -1)
    c1, c0 = phi1.conj() @ block, phi0.conj() @ block
    zero = block - np.outer(phi1, c1) - np.outer(phi0, c0)
    return {"+1": float(np.vdot(c1, c1).real), "-1": float(np.vdot(c0, c0).real),
            "0": float(np.vdot(zero, zero).real)}


# ---------------------------------------------------------------------------

class SpectralOracle(Workload):
    """The library path for user-defined observables: from_matrix, the
    invariance audit and is_function_of, on observables without `sites`."""

    name = "spectral-oracle"
    RANDOM_QUBITS = (4, 5)
    S2_QUBITS = (4, 5, 6)
    ROTATIONS = 25   # trials per invariance pattern

    @property
    def npz(self):
        return os.path.join(self.workdir, f"spectral-oracle-{self.seed}.npz")

    def prepare(self):
        rng = np.random.default_rng([self.seed, 3])
        arrays = {}
        for n in self.RANDOM_QUBITS:
            dim = 2 ** n
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            arrays[f"h{n}"] = a + a.conj().T
        arrays["rotation_seeds"] = rng.integers(0, 2 ** 31, 2 * 6)
        np.savez(self.npz, **arrays)
        self.expected = []
        for kind, n in self._items():
            m = arrays[f"h{n}"] if kind == "random" else _total_spin_squared(n)
            self.expected.append((kind, n, m, np.linalg.eigvalsh(m)))

    def _items(self):
        return ([("random", n) for n in self.RANDOM_QUBITS]
                + [("s2", n) for n in self.S2_QUBITS])

    def load(self):
        super().load()
        with np.load(self.npz) as data:
            arrays = {k: data[k] for k in data.files}
        seeds = [int(s) for s in arrays["rotation_seeds"]]
        self.items = []
        for k, (kind, n) in enumerate(self._items()):
            self.items.append((kind, n, arrays.get(f"h{n}") if kind == "random" else None,
                               seeds[2 * k], seeds[2 * k + 1]))
        # Diagonal single-site z generators, handed to from_matrix as any
        # user-defined matrix would be.
        self.z_matrices = {n: [_site_operator(_PAULI["z"], s, n) for s in range(1, n + 1)]
                           for n in self.S2_QUBITS}

    def op(self):
        sz = self.sz
        outputs = []
        for kind, n, m, seed_eq, seed_ps in self.items:
            if m is None:
                m = sz.total_spin_squared(n)
            obs = sz.from_matrix(m, name=f"{kind}{n}")
            equal = sz.check_invariance(obs, pattern="equal", trials=self.ROTATIONS,
                                        seed=seed_eq)
            per_site = sz.check_invariance(obs, pattern="per_site", trials=self.ROTATIONS,
                                           seed=seed_ps)
            gens = [sz.from_matrix(z, name=f"z{s}")
                    for s, z in enumerate(self.z_matrices[n], start=1)]
            report = sz.is_function_of(obs, gens)
            outputs.append((obs, equal.invariant, per_site.invariant, report.is_function))
        return outputs, {}

    def check(self, outputs):
        errors = []
        for (kind, n, m, eigenvalues), (obs, equal, per_site, is_function) in zip(
                self.expected, outputs):
            label = f"{kind} n={n}"
            got = np.sort(np.concatenate([np.full(b.shape[1], ev) for ev, b in obs.branches]))
            scale = max(1.0, float(np.max(np.abs(eigenvalues))))
            eig_err = float(np.max(np.abs(got - eigenvalues))) if got.shape == eigenvalues.shape \
                else math.inf
            if eig_err > RECON_TOL * scale:
                errors.append(f"{label}: eigenvalues differ from eigvalsh by {eig_err:.3e}")
            recon = sum(ev * (b @ b.conj().T) for ev, b in obs.branches)
            recon_err = float(np.max(np.abs(recon - m)))
            if recon_err > RECON_TOL:
                errors.append(f"{label}: reconstruction residual {recon_err:.3e}")
            # S^2 commutes with every u x ... x u but not with independent
            # per-site rotations, and is not diagonal in the z basis; a
            # random Hermitian matrix has neither symmetry.
            want = (kind == "s2", False, False)
            if (equal, per_site, is_function) != want:
                errors.append(f"{label}: verdicts (equal, per_site, is_function) = "
                              f"{(equal, per_site, is_function)}, expected {want}")
        return errors


def _total_spin_squared(n: int) -> np.ndarray:
    """(sum_i sigma_i / 2)^2 on n qubits from dense site operators."""
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for sigma in _PAULI.values():
        total = sum(_site_operator(sigma, s, n) for s in range(1, n + 1)) / 2
        out += total @ total
    return out


WORKLOADS = {w.name: w for w in (PaperAudit, WideRegister, SpectralOracle)}
