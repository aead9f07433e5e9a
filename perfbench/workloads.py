"""The three workloads: their generated inputs, their CLI jobs, and the
known answer each job's output is checked against.

A job is one ``altchain`` invocation.  Its check receives the job's result
and the results of the jobs before it in the same round, so pairs such as
A.B / B.A or full / alternating cohomology are compared directly.  A check
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable

import families as F

WORKLOADS = ("laws", "homology_ladder", "cochain_ops")

# The law registry as of this benchmark; a report must contain these ids,
# and exactly one of them fails: criterion 4b, projected-cup associativity
# at cochain level, is false, so a red verdict there is the right answer.
SUITES = (
    "face-permutation-sign", "boundary-of-reordered-generator",
    "projector-splitting", "projected-cup-commutativity",
    "projected-cup-associativity", "projected-cup-leibniz",
    "coboundary-preserves-alternating", "projector-coboundary-commute",
    "cohomology-splitting", "quotient-boundary",
    "torsion-boundary-cancellation", "face-class-compatibility",
    "dual-dimension-match", "quotient-homology-agreement",
    "ordered-homology-agreement", "prism-homotopy-identity",
    "pullback-naturality",
)
KNOWN_RED = "projected-cup-associativity"
CORPUS = ("point", "sphere_s2", "rp2_6", "torus_7", "klein_8")

LAWS_CASES = 40         # random cases per suite and complex at degree cap 2
LAWS_D3_CASES = 20      # the same on S^2 at degree cap 3
COCHAIN_CAP = 4
ALT_SIMPLICES = 4       # simplices under each seeded alternating cochain
PLAIN_TUPLES = 24       # tuples in each seeded plain cochain


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    files: dict            # output path -> bytes


@dataclass
class Job:
    name: str
    argv: list
    check: Callable[[Result, dict], "str | None"]
    outputs: tuple = ()


@dataclass
class Workload:
    name: str
    jobs: list
    inputs: list = field(default_factory=list)   # files the setup probe parses


# ---------------------------------------------------------------------------
# output parsing and reference formatting

def group_text(group: tuple) -> str:
    free, torsion = group
    parts = [] if free == 0 else ["Z" if free == 1 else f"Z^{free}"]
    parts += [f"Z/{d}" for d in torsion]
    return " + ".join(parts) or "0"


def betti_text(rank: int) -> str:
    return "0" if rank == 0 else ("Q" if rank == 1 else f"Q^{rank}")


def expect_lines(expected: list, exit_code: int = 0):
    def check(res: Result, _done) -> "str | None":
        if res.exit_code != exit_code:
            return f"exit code {res.exit_code}, expected {exit_code}"
        got = res.stdout.splitlines()
        if got != expected:
            return f"output {got} != expected {expected}"
        return None
    return check


def read_cochain(res: Result, path: str):
    data = json.loads(res.files[path])
    return data["degree"], F.cochain_values(data)


def alternation_error(values: dict) -> "str | None":
    """Alternating means: no tuple with a repeated entry, and every
    neighbour swap negates the value (absent counts as zero)."""
    for g, v in values.items():
        if len(set(g)) != len(g):
            return f"repeated tuple {list(g)} in an alternating cochain"
        for i in range(len(g) - 1):
            h = g[:i] + (g[i + 1], g[i]) + g[i + 2:]
            if values.get(h) != -v:
                return f"swap {i} of {list(g)} does not negate its value"
    return None


def supported_error(K: F.Complex, values: dict) -> "str | None":
    simp = F.simplices(K.facets)
    for g in values:
        if tuple(sorted(set(g))) not in simp:
            return f"tuple {list(g)} does not span a simplex"
    return None


# ---------------------------------------------------------------------------
# job sets

class JobSet:
    """Writes a workload's inputs into ``work`` and collects its jobs."""

    def __init__(self, seed: int, work: Path, data_dir: Path):
        self.seed = seed
        self.rng = Random(f"perfbench:{seed}")
        self.work = work
        self.data_dir = data_dir
        self.jobs: list = []
        self.inputs: list = []
        self._base: dict = {}

    def base(self, name: str) -> F.Complex:
        if name not in self._base:
            self._base[name] = F.base(name, self.data_dir)
        return self._base[name]

    def write_complex(self, K: F.Complex) -> tuple:
        """Write K and return (written complex, path).  A generated complex
        is relabelled with the seed; a bundled one is written as shipped,
        as ``verify --corpus`` reads it."""
        R = K if K.name in F.BASE else F.relabel(K, self.rng)
        path = self.work / f"{K.name}.json"
        path.write_text(F.complex_json(R))
        self.inputs.append(str(path))
        return R, str(path)

    def write_cochain(self, label: str, degree: int, values: dict) -> str:
        path = self.work / f"{label}.json"
        path.write_text(F.cochain_json(degree, values))
        self.inputs.append(str(path))
        return str(path)

    def add(self, name, argv, check, outputs=()):
        self.jobs.append(Job(name, [str(a) for a in argv], check, tuple(outputs)))

    # -- homology ------------------------------------------------------------

    def homology(self, K: F.Complex, path: str, variant: str, max_dim: int = 3):
        top = K.dimension + 1 if variant == "simplicial" else max_dim
        lines = [f"H_{n} = {group_text(K.group(n))}" for n in range(top)]
        argv = ["homology", path, "--variant", variant]
        if variant != "simplicial":
            argv += ["--max-dim", max_dim]
        self.add(f"homology.{variant}.{K.name}.D{max_dim}", argv, expect_lines(lines))

    def export(self, K: F.Complex, path: str, max_dim: int):
        out = str(self.work / f"presentation.{K.name}.json")
        name = f"export.{K.name}.D{max_dim}"

        def check(res: Result, _done):
            if res.exit_code != 0:
                return f"exit code {res.exit_code}"
            from altchain.alt_chains import presentation_from_json
            pres = presentation_from_json(json.loads(res.files[out]))
            if pres.max_degree != max_dim:
                return f"max_degree {pres.max_degree} != {max_dim}"
            simp = F.simplices(K.facets)
            for n in range(max_dim + 1):
                free = {t for t in simp if len(t) == n + 1}
                if set(pres.free_generators[n]) != free:
                    return f"degree {n}: free generators are not the {n}-simplices"
                torsion = F.torsion_generator_count(K.f_vector, n)
                if len(pres.torsion_generators[n]) != torsion:
                    return (f"degree {n}: {len(pres.torsion_generators[n])} torsion "
                            f"generators, predicted {torsion}")
                if n >= 1:
                    rows = len(pres.boundaries[n])
                    cols = len(pres.boundaries[n][0]) if rows else 0
                    want = (pres.generator_count(n - 1), pres.generator_count(n))
                    if rows != want[0] or (rows and cols != want[1]):
                        return f"degree {n}: boundary shape {(rows, cols)} != {want}"
            return None

        self.add(name, ["export-presentation", path, "--max-dim", max_dim, "-o", out],
                 check, [out])

    # -- verify --------------------------------------------------------------

    def verify(self, label: str, complexes: list, paths: list, cases: int,
               max_dim: int, corpus: bool = False):
        out = str(self.work / f"report.{label}.json")
        names = (list(CORPUS) if corpus else []) + [K.name for K in complexes]
        seed = self.seed

        def check(res: Result, _done):
            if res.exit_code != 1:
                return f"exit code {res.exit_code}, expected 1 (known-red {KNOWN_RED})"
            report = json.loads(res.files[out])
            header = (report["seed"], report["cases"], report["degree_cap"],
                      report["complexes"])
            want = (seed, cases, max_dim, names)
            if header != want:
                return f"report header {header} != {want}"
            verdicts = {r["id"]: r["passed"] for r in report["results"]}
            missing = [s for s in SUITES if s not in verdicts]
            if missing:
                return f"suites missing from the report: {missing}"
            failing = sorted(s for s, ok in verdicts.items() if not ok)
            if failing != [KNOWN_RED]:
                return f"failing suites {failing}, expected exactly [{KNOWN_RED}]"
            return None

        argv = ["verify", *paths, "--seed", seed, "--cases", cases,
                "--max-dim", max_dim, "--json", out]
        if corpus:
            argv.insert(1, "--corpus")
        self.add(f"verify.{label}.D{max_dim}", argv, check, [out])

    # -- cochains ------------------------------------------------------------

    def cochain_rungs(self, K: F.Complex, path: str):
        rng = self.rng
        alpha = F.random_alternating(K, 2, ALT_SIMPLICES, rng)
        beta = F.random_alternating(K, 2, ALT_SIMPLICES, rng)
        gamma = F.random_plain(K, 2, PLAIN_TUPLES, rng)
        alpha1 = F.random_alternating(K, 1, 3, rng)
        a = self.write_cochain(f"{K.name}.alpha2", 2, alpha)
        b = self.write_cochain(f"{K.name}.beta2", 2, beta)
        c = self.write_cochain(f"{K.name}.gamma2", 2, gamma)
        a1 = self.write_cochain(f"{K.name}.alpha1", 1, alpha1)
        cap = ["--max-dim", COCHAIN_CAP]
        out = {k: str(self.work / f"{K.name}.{k}.out.json")
               for k in ("ab", "ba", "plain", "residual")}

        def product_check(key, first=None):
            def check(res: Result, done):
                if res.exit_code != 0:
                    return f"exit code {res.exit_code}"
                degree, values = read_cochain(res, out[key])
                if degree != 4:
                    return f"product degree {degree} != 4"
                err = alternation_error(values) or supported_error(K, values)
                if err or first is None:
                    return err
                # graded commutativity: A.B = (-1)^(pq) B.A with p = q = 2
                _, ab = read_cochain(done[first], out["ab"])
                if values != ab:
                    return "B.A differs from (-1)^(2*2) A.B"
                return None
            return check

        ab_name = f"cup.alternative.{K.name}.AB"
        self.add(ab_name, ["cup", path, a, b, "--alternative", *cap, "-o", out["ab"]],
                 product_check("ab"), [out["ab"]])
        self.add(f"cup.alternative.{K.name}.BA",
                 ["cup", path, b, a, "--alternative", *cap, "-o", out["ba"]],
                 product_check("ba", ab_name), [out["ba"]])

        simp = F.simplices(K.facets)
        plain = {}
        for g, vg in gamma.items():
            for h, vh in beta.items():
                t = g + h[1:]
                if g[-1] == h[0] and tuple(sorted(set(t))) in simp:
                    plain[t] = vg * vh

        def plain_check(res: Result, _done):
            if res.exit_code != 0:
                return f"exit code {res.exit_code}"
            degree, values = read_cochain(res, out["plain"])
            if degree != 4 or values != plain:
                return "plain cup differs from the front/back product"
            return None

        self.add(f"cup.plain.{K.name}", ["cup", path, c, b, *cap, "-o", out["plain"]],
                 plain_check, [out["plain"]])

        def residual_check(res: Result, _done):
            if res.exit_code != 0:
                return f"exit code {res.exit_code}"
            degree, values = read_cochain(res, out["residual"])
            if degree != 3:
                return f"residual degree {degree} != 2p+1 = 3"
            err = alternation_error(values) or supported_error(K, values)
            if err:
                return err
            head = res.stdout.splitlines()[0] if res.stdout else ""
            want = ("residual: exactly zero" if not values else
                    f"residual: nonzero on {len(values)} generators;")
            if not head.startswith(want):
                return f"summary {head!r} does not describe the written cochain"
            return None

        self.add(f"residual.{K.name}", ["residual", path, a1, *cap, "-o", out["residual"]],
                 residual_check, [out["residual"]])

        lines = [f"H^{n} = {betti_text(K.betti(n))}" for n in range(COCHAIN_CAP)]
        full_name = f"cohomology.full.{K.name}"
        full_check = expect_lines(lines)
        self.add(full_name, ["cohomology", path, *cap, "--variant", "full"], full_check)

        def alt_check(res: Result, done):
            err = full_check(res, done)
            if err is None and res.stdout != done[full_name].stdout:
                return "full and alternative cohomology disagree"
            return err

        self.add(f"cohomology.alternative.{K.name}",
                 ["cohomology", path, *cap, "--variant", "alternative"], alt_check)


def build(name: str, seed: int, work: Path, data_dir: Path,
          smoke: bool = False) -> Workload:
    """Generate the inputs of workload ``name`` under ``work`` and list its
    jobs.  ``smoke`` keeps only the smallest rung of each workload."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; have {WORKLOADS}")
    work.mkdir(parents=True, exist_ok=True)
    b = JobSet(seed, work, data_dir)

    if name == "laws":
        S, s_path = b.write_complex(b.base("sphere_s2"))
        if smoke:
            b.verify("sphere_s2", [S], [s_path], cases=5, max_dim=3)
        else:
            # Jobs of one to two seconds, so that a run holds many rounds and
            # each job's median over them shrugs off bursts of interference.
            # Known-red 4b fails on every seed in each job: at cap 3
            # the exhaustive associativity search over S^2 (at most 10
            # vertices and edges) meets it; at cap 2 only random cases look,
            # and S^2 ahead of the other complexes meets it within 40 cases.
            b.verify("corpus", [], [], cases=LAWS_CASES, max_dim=2, corpus=True)
            b.verify("sphere_s2", [S], [s_path], cases=LAWS_D3_CASES, max_dim=3)
            K, path = b.write_complex(F.subdivision(b.base("sphere_s2")))
            b.verify(K.name, [S, K], [s_path, path], cases=LAWS_CASES, max_dim=2)

    elif name == "homology_ladder":
        if smoke:
            K, path = b.write_complex(b.base("rp2_6"))
            b.homology(K, path, "alternative", max_dim=3)
            K, path = b.write_complex(F.boundary_of_simplex(3))
            b.homology(K, path, "simplicial")
            b.export(K, path, max_dim=3)
        else:
            for base in ("point", "sphere_s2", "rp2_6", "klein_8"):
                # rp2_6 is the torsion rung (H_1 = Z/2); klein_8 at D=4 the
                # presented rung where dense SNF is most of the time
                K, path = b.write_complex(b.base(base))
                b.homology(K, path, "alternative", max_dim=4)
            b.export(K, path, max_dim=4)
            for base in ("rp2_6", "torus_7"):
                K, path = b.write_complex(F.subdivision(b.base(base)))
                b.homology(K, path, "simplicial")
                if base == "rp2_6":
                    b.homology(K, path, "ordered")
            b.export(K, path, max_dim=3)
            for d in (5, 6):
                K, path = b.write_complex(F.boundary_of_simplex(d))
                b.homology(K, path, "simplicial")
                if d == 5:
                    b.homology(K, path, "alternative", max_dim=3)
            for K0 in (F.suspension(b.base("torus_7")), F.cone(b.base("rp2_6"))):
                K, path = b.write_complex(K0)
                b.homology(K, path, "simplicial")

    else:
        bd4 = F.boundary_of_simplex(4)
        # Every relabelling of a simplex boundary is an automorphism, so the
        # cost of the slowest job, cohomology of the boundary of the
        # 6-simplex, does not depend on the seed.
        family = [bd4] if smoke else [
            F.boundary_of_simplex(6), F.cone(b.base("rp2_6"))]
        for K0 in family:
            K, path = b.write_complex(K0)
            b.cochain_rungs(K, path)

    return Workload(name, b.jobs, b.inputs)
