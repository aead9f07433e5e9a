import contextlib
import importlib
import inspect
import io
import itertools
import json
import os
import sys
import tempfile
from fractions import Fraction
from math import factorial
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from altchain import (alt_chains, cli, cochain_algebra, enumerate_generators,
                      homotopy_prism, permutations, verify)
from altchain import integer_homology as ih
from altchain.cochain_algebra import alternating_cochain, cochain_from_json, cochain_to_json
from altchain.complex_model import DEFAULT_GENERATOR_BUDGET, GeneratorIndex, face, load_complex
from altchain.corpus import CORPUS_NAMES, load_corpus_complex
from altchain.errors import FormatError
from altchain.integer_homology import homology_presented
from oracles import subdivision


def test_registry_ids_unique_and_described(corpus):
    ids = [suite_id for suite_id, _, _ in verify.REGISTRY]
    assert len(ids) == len(set(ids))
    # each callable returns (cases run, counterexample dict or None)
    ctxs = [verify.ComplexContext(name=name, complex=K, index=enumerate_generators(K, 1),
                                  presentation=alt_chains.alt_chain_complex(K, 1))
            for name, K in corpus]
    for suite_id, statement, fn in verify.REGISTRY:
        assert suite_id == suite_id.lower()
        assert len(statement) > 20
        result = fn(ctxs, Random(0), 3)
        assert type(result) is tuple and len(result) == 2, suite_id
        assert type(result[0]) is int and result[0] >= 0, suite_id
        assert result[1] is None or type(result[1]) is dict, suite_id


ROOT = Path(__file__).resolve().parents[1]


def test_registry_matches_its_readers(monkeypatch):
    registered = [suite_id for suite_id, _, _ in verify.REGISTRY]
    # the benchmark's laws workload needs its suites and its known-red one;
    # suites it does not know are safe for it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert set(workloads.SUITES) <= set(registered)
    assert workloads.KNOWN_RED in registered
    # the README's suite table lists the registry in order, after its
    # header and separator rows
    section = (ROOT / "README.md").read_text().split("\n## Verification registry\n")[1]
    rows = [line.split("|")[1].strip() for line in section.split("\n## ")[0].splitlines()
            if line.startswith("| ")]
    assert rows[2:] == registered
    # every suite generator of the module is registered once, where it is written
    suites = [fn for name, fn in vars(verify).items() if name.startswith("_suite_")]
    assert [fn for _, _, fn in verify.REGISTRY] == suites


def test_suite_counts_outcomes_up_to_the_first_counterexample():
    evaluated = []

    def outcomes(ctxs, rng, cases):
        for k, outcome in enumerate((True, True, {(0, 1): Fraction(1, 2)}, True)):
            evaluated.append(k)
            yield outcome

    # the counterexample is made serializable, and the fourth case never runs
    assert verify._suite(outcomes)([], Random(0), 0) == (3, {"(0, 1)": "1/2"})
    assert evaluated == [0, 1, 2]


def test_suite_reports_a_stray_false_as_a_failure(point, monkeypatch):
    for stray in (False, None):
        def outcomes(ctxs, rng, cases, stray=stray):
            yield True
            yield stray

        suite = verify._suite(outcomes)
        assert suite([], Random(0), 0) == (2, {"outcome": stray})
        monkeypatch.setattr(verify, "REGISTRY", (("stray", "A suite whose second "
                                                  "case yields no verdict.", suite),))
        (result,) = verify.run_all([("point", point)], cases=0, degree_cap=1).results
        assert (result.cases, result.passed, result.counterexample) == \
            (2, False, {"outcome": stray})


def test_run_all_point_passes_everything(point):
    report = verify.run_all([("point", point)], seed=3, cases=20)
    assert report.all_passed
    assert len(report.results) == len(verify.REGISTRY)


def test_run_all_sphere_flags_only_associativity(sphere):
    report = verify.run_all([("sphere_s2", sphere)], seed=1, cases=40)
    failed = [r.suite_id for r in report.results if not r.passed]
    # the projected cup product is genuinely non-associative at cochain
    # level; everything else holds
    assert failed == ["projected-cup-associativity"]
    bad = next(r for r in report.results if not r.passed)
    assert bad.counterexample is not None
    json.dumps(bad.counterexample)  # serializable


def record_presentation_budgets(monkeypatch) -> list:
    """The budget of every later alt_chain_complex call, defaults applied."""
    real = alt_chains.alt_chain_complex
    budgets = []

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        budgets.append(bound.arguments["budget"])
        return real(*args, **kwargs)

    monkeypatch.setattr(alt_chains, "alt_chain_complex", spy)
    return budgets


def test_run_all_passes_its_budget_to_the_presentation(point, sphere, monkeypatch):
    budgets = record_presentation_budgets(monkeypatch)
    verify.run_all([("point", point), ("sphere_s2", sphere)], seed=0, cases=1,
                   degree_cap=2, budget=12_345)
    assert budgets == [12_345, 12_345]


def test_report_determinism(sphere, point):
    pair = [("point", point), ("sphere_s2", sphere)]
    a = verify.run_all(pair, seed=9, cases=25)
    b = verify.run_all(pair, seed=9, cases=25)
    assert a.to_json() == b.to_json()
    c = verify.run_all(pair, seed=10, cases=25)
    assert c.to_json() != a.to_json() or c.all_passed == a.all_passed


def test_mutation_in_face_permutation_is_caught(point, monkeypatch):
    real = verify._induced_face

    def broken(images, i):
        out = real(images, i)
        if len(out) >= 2 and i == 0:
            return (out[1], out[0]) + out[2:]
        return out

    monkeypatch.setattr(verify, "_induced_face", broken)
    report = verify.run_all([("point", point)], seed=0, cases=5)
    failed = {r.suite_id for r in report.results if not r.passed}
    assert "face-permutation-sign" in failed
    entry = next(r for r in report.results
                 if r.suite_id == "face-permutation-sign")
    assert entry.counterexample["i"] == 0
    assert "images" in entry.counterexample


REAL_CANONICALIZE = alt_chains.canonicalize


def unsigned_canonicalize(g):
    t, is_torsion, coeff = REAL_CANONICALIZE(g)
    return t, is_torsion, abs(coeff)  # drop every orientation sign


def test_mutation_in_canonicalize_is_caught(sphere, monkeypatch):
    monkeypatch.setattr(alt_chains, "canonicalize", unsigned_canonicalize)
    report = verify.run_all([("sphere_s2", sphere)], seed=0, cases=5)
    failed = {r.suite_id: r.counterexample for r in report.results if not r.passed}
    # the pattern (0, 1) is free, and the swap is odd
    assert failed["face-class-compatibility"] == {"pattern": [0, 1], "images": [1, 0]}


def torsion_only_on_a_leading_repeat(g):
    # a repeat counts only between the first two sorted entries, so
    # (0, 1, 1) is taken for a free class
    t, is_torsion, coeff = REAL_CANONICALIZE(g)
    if is_torsion and t[0] != t[1]:
        return t, False, permutations.parity(g)
    return t, is_torsion, coeff


def test_a_quotient_map_that_raises_is_reported(sphere, monkeypatch, capsys):
    monkeypatch.setattr(alt_chains, "canonicalize", torsion_only_on_a_leading_repeat)
    report = verify.run_all([("sphere_s2", sphere)], seed=0, cases=5, degree_cap=3)
    failed = {r.suite_id: r for r in report.results if not r.passed}
    assert set(failed) == {"prism-homotopy-identity", "face-class-compatibility",
                           "quotient-boundary", "torsion-boundary-cancellation",
                           "projected-cup-associativity"}
    # the mutant takes (0, 1, 1, 1) for free, so its descended boundary has
    # the free term (0, 1, 1) where the stored column has a torsion row
    assert failed["quotient-boundary"].counterexample["tuple"] == [0, 1, 1, 1]
    # the cone's prism takes the torsion class (1, 1) to (0, 1, 1), which
    # the mutant calls free
    prism = failed["prism-homotopy-identity"]
    assert prism.cases == 12
    assert prism.counterexample == {
        "generator": [1, 1], "side": "quotient",
        "fixture": "cone contraction of the full 1-simplex",
        "reason": "image of torsion class (1, 1) has free terms {(0, 1, 1): 1}; "
                  "its class would not have order 2"}
    # the command reports the fault and exits 1 instead of raising
    assert cli.main(["verify", corpus_path("sphere_s2"), "--cases", "5",
                     "--max-dim", "3"]) == 1
    out, err = capsys.readouterr()
    assert "[FAIL] prism-homotopy-identity: 12 cases" in out and err == ""


REAL_PRISM_ALT = homotopy_prism.prism_alt


def prism_drops_a_negative_sign(h, chain):
    # P(-x) taken for P(x) on a chain whose free terms are all negative: a
    # reordered generator of odd sign.  No boundary of a generator is such a
    # chain, so a check that met each class with its sorted, positive
    # representative only would never see the fault
    if chain.free and all(c < 0 for c in chain.free.values()):
        return REAL_PRISM_ALT(h, -chain)
    return REAL_PRISM_ALT(h, chain)


def test_prism_identity_checks_each_sign_of_a_class(sphere, monkeypatch):
    monkeypatch.setattr(homotopy_prism, "prism_alt", prism_drops_a_negative_sign)
    report = verify.run_all([("sphere_s2", sphere)], seed=0, cases=5, degree_cap=3)
    failed = {r.suite_id: r for r in report.results if not r.passed}
    assert set(failed) == {"prism-homotopy-identity", "projected-cup-associativity"}
    # (2, 1) is -(1, 2), met after (1, 2) passed; on the edge the cone's
    # prism of (0, 1) is zero, so its sign does not matter there
    prism = failed["prism-homotopy-identity"]
    assert prism.counterexample == {"generator": [2, 1], "side": "quotient",
                                    "fixture": "cone contraction of the full 2-simplex"}


def last_face_dropped(coefficients):
    out: dict = {}
    for g, c in coefficients.items():
        for i in range(len(g) - 1):  # the last face is dropped
            f = g[:i] + g[i + 1:]
            out[f] = out.get(f, 0) + (-1) ** i * c
    return {t: c for t, c in out.items() if c}


def test_mutation_in_ordered_boundary_is_caught(point, monkeypatch):
    monkeypatch.setattr(alt_chains, "ordered_boundary", last_face_dropped)
    report = verify.run_all([("point", point)], seed=0, cases=5)
    failed = {r.suite_id: r.counterexample for r in report.results if not r.passed}
    assert failed["boundary-of-reordered-generator"] == {
        "pattern": [0, 0], "images": [0, 1], "lhs": {"(0,)": 1}, "rhs": {}}


# (suite id, mutant, its first counterexample on the order patterns)
PATTERN_MUTANTS = [
    ("face-class-compatibility", (alt_chains, "canonicalize", unsigned_canonicalize),
     {"pattern": [0, 1], "images": [1, 0]}),
    ("boundary-of-reordered-generator", (alt_chains, "ordered_boundary", last_face_dropped),
     {"pattern": [0, 0], "images": [0, 1], "lhs": {"(0,)": 1}, "rhs": {}}),
]


@pytest.mark.parametrize("suite_id, patch, counterexample", PATTERN_MUTANTS,
                         ids=[sid for sid, _, _ in PATTERN_MUTANTS])
def test_order_pattern_mutants_go_red_without_a_sample(suite_id, patch, counterexample,
                                                        torus, monkeypatch):
    monkeypatch.setattr(*patch)
    report = verify.run_all([("torus_7", torus)], seed=0, cases=0, degree_cap=3)
    (entry,) = [r for r in report.results if r.suite_id == suite_id]
    assert entry.counterexample == counterexample


def label_read_canonicalize(g):
    # orientation signs are dropped on tuples holding a label of 4 or more,
    # which no order pattern of length at most 4 holds
    t, is_torsion, coeff = REAL_CANONICALIZE(g)
    return t, is_torsion, abs(coeff) if max(g) >= 4 else coeff


REAL_ORDERED_BOUNDARY = alt_chains.ordered_boundary


def label_read_ordered_boundary(coefficients):
    # the last face is dropped from tuples holding a label of 4 or more
    if any(max(g) >= 4 for g in coefficients):
        return last_face_dropped(coefficients)
    return REAL_ORDERED_BOUNDARY(coefficients)


# (suite id, mutant, the sampled counterexample on torus_7 at seed 3, 10 cases)
LABEL_MUTANTS = [
    ("face-class-compatibility", (alt_chains, "canonicalize", label_read_canonicalize),
     {"complex": "torus_7", "generator": [6, 0], "images": [1, 0]}),
    ("boundary-of-reordered-generator",
     (alt_chains, "ordered_boundary", label_read_ordered_boundary),
     {"complex": "torus_7", "generator": [0, 6, 4, 0], "images": [0, 1, 2, 3],
      "lhs": {"(6, 4, 0)": 1, "(0, 4, 0)": -1, "(0, 6, 0)": 1},
      "rhs": {"(6, 4, 0)": 1, "(0, 4, 0)": -1, "(0, 6, 0)": 1, "(0, 6, 4)": -1}}),
]


@pytest.mark.parametrize("suite_id, patch, counterexample", LABEL_MUTANTS,
                         ids=[sid for sid, _, _ in LABEL_MUTANTS])
def test_label_reading_mutants_go_red_only_through_the_sample(suite_id, patch,
                                                               counterexample, torus,
                                                               monkeypatch):
    monkeypatch.setattr(*patch)
    ctxs = contexts([("torus_7", torus)], 3)
    (suite,) = [fn for sid, _, fn in verify.REGISTRY if sid == suite_id]
    patterns, bad = suite(ctxs, Random(f"3:{suite_id}"), 0)
    assert bad is None
    count, bad = suite(ctxs, Random(f"3:{suite_id}"), 10)
    assert count > patterns and bad == counterexample


def test_mutation_in_torsion_boundary_is_caught(point, monkeypatch):
    # the free block alone reproduces simplicial homology, so only the
    # torsion block can turn quotient-homology-agreement red
    real = alt_chains.alt_chain_complex

    def broken(K, max_degree, **kwargs):
        pres = real(K, max_degree, **kwargs)
        columns = [[column if c < len(pres.free_generators[n]) else {}  # free columns only
                    for c, column in enumerate(columns)]
                   for n, columns in enumerate(pres.columns)]
        return alt_chains.AltComplexPresentation(
            pres.complex, pres.max_degree, pres.free_generators,
            pres.torsion_generators, tuple(columns))

    monkeypatch.setattr(alt_chains, "alt_chain_complex", broken)
    report = verify.run_all([("point", point)], seed=0, cases=5)
    entry = next(r for r in report.results
                 if r.suite_id == "quotient-homology-agreement")
    assert not entry.passed
    assert entry.counterexample == {"complex": "point", "degree": 1,
                                    "quotient": "Z/2", "simplicial": "0"}


def test_mutation_in_quotient_boundary_is_caught(point, monkeypatch):
    # the presentation is built without alt_chains.boundary, and dropping
    # the torsion images there keeps d d = 0; quotient-boundary sees them
    # gone from the stored columns, and the prism identity
    # d h + h d = g - f on the quotient reads them too
    real = alt_chains.boundary

    def broken(chain):
        out = real(chain)
        if chain.torsion:
            return alt_chains.AltChain(out.degree, out.free)
        return out

    monkeypatch.setattr(alt_chains, "boundary", broken)
    report = verify.run_all([("point", point)], seed=0, cases=5)
    failed = {r.suite_id for r in report.results if not r.passed}
    assert "prism-homotopy-identity" in failed


def test_mutation_in_presentation_boundary_is_caught(point, monkeypatch):
    # the relations 2*e_t are stored nowhere; quotient-boundary reads them
    # off the torsion rows, where the lifted product may only be even.  On
    # the point the torsion generators of degrees 2 and 3 get boundary 1
    # each, so their composite is 1, odd on a torsion row.
    real = alt_chains.alt_chain_complex

    def broken(K, max_degree, **kwargs):
        pres = real(K, max_degree, **kwargs)
        columns = list(pres.columns)
        columns[3] = [{0: 1}]
        return alt_chains.AltComplexPresentation(
            pres.complex, pres.max_degree, pres.free_generators,
            pres.torsion_generators, tuple(columns))

    monkeypatch.setattr(alt_chains, "alt_chain_complex", broken)
    report = verify.run_all([("point", point)], seed=0, cases=5)
    failed = {r.suite_id: r.counterexample for r in report.results if not r.passed}
    # homology_presented takes the law for granted, and the homology of an
    # input that breaks it is undefined: whatever groups it reports, only
    # the law's own suite can name the fault
    assert failed == {"quotient-boundary": {"complex": "point", "degree": 2,
                                            "row": 0, "col": 0, "value": 1}}


def test_mutation_joining_free_and_torsion_is_caught(sphere, monkeypatch):
    # one entry of d_1 joins the free vertex 0 to the torsion edge (0, 0);
    # the descended boundary of each generator is still right, and the
    # shared law of a presented complex, checked first, names the entry
    real = alt_chains.alt_chain_complex

    def broken(K, max_degree, **kwargs):
        pres = real(K, max_degree, **kwargs)
        columns = list(pres.columns)
        f1 = len(pres.free_generators[1])
        assert pres.torsion_generators[1][0] == (0, 0)
        columns[1] = columns[1][:f1] + [{0: 1}] + columns[1][f1 + 1:]
        return alt_chains.AltComplexPresentation(
            pres.complex, pres.max_degree, pres.free_generators,
            pres.torsion_generators, tuple(columns))

    monkeypatch.setattr(alt_chains, "alt_chain_complex", broken)
    report = verify.run_all([("sphere_s2", sphere)], seed=0, cases=5)
    failed = {r.suite_id: r.counterexample for r in report.results if not r.passed}
    assert failed["quotient-boundary"] == {"complex": "sphere_s2", "degree": 1,
                                           "row": 0, "col": 6, "value": 1}


def test_mutation_joining_free_and_torsion_is_caught_at_cap_1(point, sphere, monkeypatch):
    # at cap 1 there is no d_2 to compose with, and d_1 alone must still be
    # checked: the same entry (0, f_1) = 1 joins a free vertex and the
    # first torsion edge, on the point and on S^2
    real = alt_chains.alt_chain_complex

    def broken(K, max_degree, **kwargs):
        pres = real(K, max_degree, **kwargs)
        columns = list(pres.columns)
        f1 = len(pres.free_generators[1])
        columns[1] = columns[1][:f1] + [{**columns[1][f1], 0: 1}] + columns[1][f1 + 1:]
        return alt_chains.AltComplexPresentation(
            pres.complex, pres.max_degree, pres.free_generators,
            pres.torsion_generators, tuple(columns))

    healthy = {r.suite_id: r for r in verify.run_all(
        [("point", point), ("sphere_s2", sphere)], seed=0, cases=5, degree_cap=1).results}
    assert healthy["quotient-boundary"].passed
    monkeypatch.setattr(alt_chains, "alt_chain_complex", broken)
    for name, K, col in (("point", point, 0), ("sphere_s2", sphere, 6)):
        report = verify.run_all([(name, K)], seed=0, cases=5, degree_cap=1)
        failed = {r.suite_id: r.counterexample for r in report.results if not r.passed}
        assert failed["quotient-boundary"] == {"complex": name, "degree": 1,
                                               "row": 0, "col": col, "value": 1}


def test_mutation_reorienting_an_edge_is_caught(corpus, monkeypatch):
    # the free edge 0 flips its orientation consistently (the point has no
    # free edge): its column of d_1 and its row of d_2 are negated, so the
    # presentation still obeys the law and has the right homology; only
    # the comparison with the descended boundary sees that the column is
    # no longer d(0, 1)
    real = alt_chains.alt_chain_complex

    def broken(K, max_degree, **kwargs):
        pres = real(K, max_degree, **kwargs)
        if not pres.free_generators[1]:
            return pres
        columns = [list(cols) for cols in pres.columns]
        columns[1][0] = {r: -v for r, v in columns[1][0].items()}
        columns[2] = [{r: -v if r == 0 else v for r, v in column.items()}
                      for column in columns[2]]
        return alt_chains.AltComplexPresentation(
            pres.complex, pres.max_degree, pres.free_generators,
            pres.torsion_generators, tuple(tuple(cols) for cols in columns))

    monkeypatch.setattr(alt_chains, "alt_chain_complex", broken)
    report = verify.run_all(corpus, seed=5, cases=10, degree_cap=3)
    failed = {r.suite_id: r.counterexample for r in report.results if not r.passed}
    assert set(failed) == {"quotient-boundary", "projected-cup-associativity"}
    assert failed["quotient-boundary"] == {
        "complex": "sphere_s2", "tuple": [0, 1],
        "descended": {"free": {"(0,)": -1, "(1,)": 1}, "torsion": {}},
        "stored": {"free": {"(0,)": 1, "(1,)": -1}, "torsion": {}}}


def test_mutation_in_ordered_boundary_matrix_is_caught(sphere, monkeypatch):
    # one face sign of the triangle (0, 1, 2) flipped in d_2: the ranks, and
    # so the groups, stay those of S^2, and only the composition check of
    # ordered-homology-agreement sees that d_1 d_2 is no longer zero
    real = verify._ordered_columns

    def broken(index, n):
        columns = real(index, n)
        if n == 2:
            column = columns[index.positions(2)[(0, 1, 2)]]
            row = min(column)
            column[row] = -column[row]
        return columns

    monkeypatch.setattr(verify, "_ordered_columns", broken)
    assert ih.ordered_homology(enumerate_generators(sphere, 3)) == \
        ih.simplicial_homology(sphere)
    report = verify.run_all([("sphere_s2", sphere)], seed=0, cases=5)
    failed = {r.suite_id: r.counterexample for r in report.results if not r.passed}
    assert set(failed) == {"ordered-homology-agreement", "projected-cup-associativity"}
    assert failed["ordered-homology-agreement"] == {"complex": "sphere_s2", "degree": 1,
                                                    "row": 1, "col": 6, "value": -2}


def test_mutation_dropping_a_projector_row_is_caught(sphere, monkeypatch):
    # the projector sends the indicator of (1, 0) to zero: its row of the
    # projector is gone, but the row of (0, 1) spans the same image, so
    # only the closed form on every generator sees it
    from altchain import cochain_algebra as ca

    real = ca.alternative_maker

    def broken(alpha):
        return ca.Cochain.zero(1) if alpha == ca.Cochain.indicator((1, 0)) else real(alpha)

    monkeypatch.setattr(ca, "alternative_maker", broken)
    report = verify.run_all([("sphere_s2", sphere)], seed=0, cases=5, degree_cap=2)
    failed = {r.suite_id: r.counterexample for r in report.results if not r.passed}
    assert set(failed) <= {"projector-splitting", "projector-coboundary-commute",
                           "projected-cup-associativity"}
    assert failed["projector-splitting"] == {"complex": "sphere_s2", "generator": [1, 0]}


def test_mutation_moving_an_alternating_cochain_is_caught(point, monkeypatch):
    # the projector doubles what is already alternating: rows keep their
    # rank, so the basis cochains are what the suite sees moved
    from altchain import cochain_algebra as ca

    real = ca.alternative_maker

    def broken(alpha):
        out = real(alpha)
        return out.scale(2) if out == alpha else out

    monkeypatch.setattr(ca, "alternative_maker", broken)
    report = verify.run_all([("point", point)], seed=0, cases=5)
    failed = {r.suite_id: r.counterexample for r in report.results if not r.passed}
    assert failed["projector-splitting"] == {
        "complex": "point", "tuple": [0],
        "reason": "projector moved an alternating basis cochain"}


def test_mutation_giving_a_torsion_edge_a_free_boundary_is_caught(point, monkeypatch):
    # the ordered boundary of (v, v) is (v) - (v) = 0; the mutant leaves it
    # one free vertex.  At cap 1 no degree-2 generator exists, so only the
    # check of each torsion generator's own boundary sees it, and it must
    # report the fault rather than raise
    real = alt_chains.ordered_boundary

    def broken(coefficients):
        out = real(coefficients)
        for g, c in coefficients.items():
            if len(g) == 2 and g[0] == g[1]:
                out[g[:1]] = out.get(g[:1], 0) + c
        return {t: c for t, c in out.items() if c}

    monkeypatch.setattr(alt_chains, "ordered_boundary", broken)
    report = verify.run_all([("point", point)], seed=0, cases=5, degree_cap=1)
    failed = {r.suite_id: r.counterexample for r in report.results if not r.passed}
    assert "quotient-boundary" in failed
    found = json.loads(json.dumps(failed["quotient-boundary"]))
    assert found["complex"] == "point" and found["tuple"] == [0, 0]
    assert found["reason"].startswith(
        "image of torsion class (0, 0) has free terms {(0,): 1}; ")


def test_mutation_dropping_a_free_generator_is_caught(sphere, monkeypatch):
    # the last triangle of S^2 goes, with its column of the top boundary;
    # the rest stays a consistent presented complex with the same homology
    # below the cap, so only dual-dimension-match (and the known-red
    # projected-cup-associativity) fails
    real = alt_chains.alt_chain_complex

    def broken(K, max_degree, **kwargs):
        pres = real(K, max_degree, **kwargs)
        free = list(pres.free_generators)
        columns = list(pres.columns)
        f = len(free[max_degree])
        free[max_degree] = free[max_degree][:-1]
        columns[max_degree] = columns[max_degree][:f - 1] + columns[max_degree][f:]
        return alt_chains.AltComplexPresentation(
            pres.complex, pres.max_degree, tuple(free),
            pres.torsion_generators, tuple(columns))

    monkeypatch.setattr(alt_chains, "alt_chain_complex", broken)
    report = verify.run_all([("sphere_s2", sphere)], seed=0, cases=5, degree_cap=2)
    failed = {r.suite_id: r.counterexample for r in report.results if not r.passed}
    assert set(failed) <= {"dual-dimension-match", "projected-cup-associativity"}
    assert failed["dual-dimension-match"] == {"complex": "sphere_s2", "degree": 2,
                                              "alternating_dim": 4,
                                              "free_generators": 3}


# mutants of the cochain side, one per suite that no other test turns red
REAL_COBOUNDARY, REAL_PULL_BACK = cochain_algebra.coboundary, homotopy_prism.pull_back


def unsigned_coboundary(index, alpha):
    # every face term counted with +1: the coboundary loses its signs
    values = {}
    for g in index.generators(alpha.degree + 1):
        values[g] = sum(alpha(face(g, i)) for i in range(len(g)))
    return cochain_algebra.Cochain(alpha.degree + 1, values)


def sorted_representative(alpha):
    # pi* iota*: read alpha on sorted tuples only and extend alternatingly;
    # a projector onto the alternating cochains that commutes with the
    # coboundary, but is not the parity average: projector-splitting's
    # closed form finds it at (0, 1), whose indicator it maps to twice that
    total = cochain_algebra.Cochain.zero(alpha.degree)
    for g, v in alpha.values.items():
        if list(g) == sorted(set(g)):
            total = total + alternating_cochain(g, v)
    return total


def signed_by_degree(index, alpha):
    # the other sign convention, (-1)^(n+1) times the coboundary of degree n
    return REAL_COBOUNDARY(index, alpha).scale((-1) ** (alpha.degree + 1))


def overwriting_face_row(g, row_of):
    # coinciding faces of a tuple overwrite each other instead of adding up
    return {row_of[g[:i] + g[i + 1:]]: (-1) ** i for i in range(len(g))}


def sorted_image_pull_back(f, alpha):
    # each value is pulled back along the sorted image tuple
    return REAL_PULL_BACK(f, cochain_algebra.Cochain(
        alpha.degree, {tuple(sorted(h)): v for h, v in alpha.values.items()}))


# (suite id, mutant, (owner, attribute, replacement), the other suites it
# takes down).  cup-without-projector makes alt_cup the plain cup.  The
# plain cup and the cup projected by pi* iota* are associative, so the
# known-red projected-cup-associativity goes green under those two.
MUTANTS = [
    ("projected-cup-commutativity", "cup-without-projector",
     (cochain_algebra, "alt_cup", cochain_algebra.cup), set()),
    ("projected-cup-commutativity", "sorted-representative-projector",
     (cochain_algebra, "alternative_maker", sorted_representative), {"projector-splitting"}),
    ("projected-cup-leibniz", "coboundary-sign-by-degree",
     (cochain_algebra, "coboundary", signed_by_degree), {"projected-cup-associativity"}),
    ("coboundary-preserves-alternating", "unsigned-coboundary",
     (cochain_algebra, "coboundary", unsigned_coboundary),
     {"projected-cup-associativity", "projected-cup-leibniz",
      "projector-coboundary-commute"}),
    ("cohomology-splitting", "overwriting-face-row",
     (ih, "_face_row", overwriting_face_row),
     {"projected-cup-associativity", "ordered-homology-agreement"}),
    ("pullback-naturality", "sorted-image-pull-back",
     (homotopy_prism, "pull_back", sorted_image_pull_back), {"projected-cup-associativity"}),
]


@pytest.mark.parametrize("suite_id, patch, taken_down",
                         [(sid, patch, others) for sid, _, patch, others in MUTANTS],
                         ids=[f"{sid}/{mutant}" for sid, mutant, _, _ in MUTANTS])
def test_cochain_side_suites_go_red_on_a_mutant(suite_id, patch, taken_down, sphere,
                                                 monkeypatch):
    monkeypatch.setattr(*patch)
    report = verify.run_all([("sphere_s2", sphere)], seed=0, cases=10, degree_cap=3)
    assert {r.suite_id for r in report.results if not r.passed} == {suite_id} | taken_down


def contexts(complexes, cap):
    return [verify.ComplexContext(name=name, complex=K,
                                  index=enumerate_generators(K, cap),
                                  presentation=None)
            for name, K in complexes]


def test_cup_commutativity_builds_each_basis_cochain_once(sphere, monkeypatch):
    from altchain import cochain_algebra as ca

    real = ca.alternating_cochain
    built = []

    def spy(tau, value=1):
        built.append(tau)
        return real(tau, value)

    monkeypatch.setattr(ca, "alternating_cochain", spy)
    count, bad = verify._suite_cup_commutativity(
        contexts([("sphere_s2", sphere)], 2), Random(0), 0)
    vertices, edges = sphere.simplices_of_dim(0), sphere.simplices_of_dim(1)
    assert bad is None
    assert count == (len(vertices) + len(edges)) ** 2  # every (p, q) with p + q <= 2
    assert sorted(built) == sorted(vertices + edges)


def test_boundary_of_reordered_takes_each_face_once(sphere, monkeypatch):
    real = verify.face
    faces_by_degree: dict = {}

    def spy(g, i):
        faces_by_degree[len(g) - 1] = faces_by_degree.get(len(g) - 1, 0) + 1
        return real(g, i)

    monkeypatch.setattr(verify, "face", spy)
    ctxs = contexts([("sphere_s2", sphere)], 3)
    checked = [g for _, g in verify._label_free_cases(ctxs, Random(0), 7, 1)]
    count, bad = verify._suite_boundary_of_reordered(ctxs, Random(0), 7)
    assert bad is None
    # n + 1 faces per checked pattern or sampled tuple of degree n
    assert faces_by_degree == {n: (n + 1) * sum(len(g) == n + 1 for g in checked)
                               for n in (1, 2, 3)}
    assert count == sum(factorial(len(g)) for g in checked)


def test_exhaustive_permutation_suites_run_every_case(corpus):
    ctxs = contexts(corpus, 3)
    patterns = {extra: sum(factorial(n + extra) * len(verify._order_patterns(n + extra))
                           for n in (1, 2, 3))
                for extra in (0, 1)}
    assert patterns == {0: 1 + 3 * 2 + 13 * 6, 1: 3 * 2 + 13 * 6 + 75 * 24}
    for suite, extra in ((verify._suite_face_class_compat, 0),
                         (verify._suite_boundary_of_reordered, 1)):
        assert suite(ctxs, Random(0), 0) == (patterns[extra], None)
        sample = [g for where, g in verify._label_free_cases(ctxs, Random(1), 10, extra)
                  if "generator" in where]
        assert len(sample) == 10 * len(ctxs)
        assert suite(ctxs, Random(1), 10) == (
            patterns[extra] + sum(factorial(len(g)) for g in sample), None)


def test_order_patterns_are_every_weak_order_once():
    # the ordered Bell (Fubini) numbers
    assert [len(verify._order_patterns(m)) for m in range(1, 6)] == [1, 3, 13, 75, 541]
    for m in range(1, 6):
        patterns = verify._order_patterns(m)
        assert len(set(patterns)) == len(patterns)
        assert list(patterns) == sorted(patterns)
        for p in patterns:
            assert len(p) == m and set(p) == set(range(max(p) + 1))


# ---------------------------------------------------------------------------
# command line

def corpus_path(name):
    from importlib import resources
    return str(resources.files("altchain.data").joinpath(f"{name}.json"))


def test_cli_homology_variants(capsys):
    assert cli.main(["homology", corpus_path("rp2_6"),
                     "--variant", "alternative"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["H_0 = Z", "H_1 = Z/2", "H_2 = 0"]

    assert cli.main(["homology", corpus_path("torus_7"),
                     "--variant", "simplicial"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["H_0 = Z", "H_1 = Z^2", "H_2 = Z"]

    assert cli.main(["homology", corpus_path("klein_8"), "--variant", "ordered",
                     "--coeff", "Q"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["H_0 = Q", "H_1 = Q", "H_2 = 0"]


def test_cli_cohomology(capsys):
    assert cli.main(["cohomology", corpus_path("sphere_s2")]) == 0
    assert capsys.readouterr().out.splitlines() == ["H^0 = Q", "H^1 = 0", "H^2 = Q"]
    assert cli.main(["cohomology", corpus_path("torus_7"),
                     "--variant", "alternative"]) == 0
    assert capsys.readouterr().out.splitlines() == ["H^0 = Q", "H^1 = Q^2", "H^2 = Q"]


def test_cli_verify_exit_codes(tmp_path, capsys):
    assert cli.main(["verify", corpus_path("point"), "--cases", "10"]) == 0
    capsys.readouterr()

    report_path = tmp_path / "report.json"
    code = cli.main(["verify", corpus_path("sphere_s2"), "--cases", "10",
                     "--json", str(report_path)])
    assert code == 1  # the associativity defect is reported honestly
    capsys.readouterr()
    data = json.loads(report_path.read_text())
    assert data["all_passed"] is False
    failing = [r for r in data["results"] if not r["passed"]]
    assert [r["id"] for r in failing] == ["projected-cup-associativity"]
    assert failing[0]["counterexample"]


def test_cli_verify_requires_input(capsys):
    assert cli.main(["verify"]) == 2
    assert "at least one complex" in capsys.readouterr().err


def test_cli_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["homology", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert cli.main(["homology", str(missing)]) == 2
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    assert cli.main(["homology", str(binary)]) == 2
    # past Python's parser limits: nesting depth, digits of a JSON integer
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    long_count = tmp_path / "long_count.json"
    long_count.write_text('{"vertices": ' + "9" * 4_301 + ', "facets": [[0]]}')
    capsys.readouterr()
    for path in (deep, long_count):
        assert cli.main(["homology", str(path)]) == 2, path
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1, err


def test_cli_budget_exit(tmp_path, capsys, monkeypatch):
    torus = corpus_path("torus_7")
    for argv in (["homology", torus, "--variant", "ordered"],
                 ["homology", torus, "--variant", "alternative"],
                 ["export-presentation", torus, "-o", str(tmp_path / "p.json")]):
        monkeypatch.setenv("ALTCHAIN_MAX_GENERATORS", "10")
        assert cli.main(argv) == 3, argv
        err = capsys.readouterr().err
        assert "budget" in err, argv
        # ASCII digits only, the rule of --max-dim and --cases, though int()
        # takes the last four and -1 is an integer
        for bad in ("junk", "", "-1", "1_000", " 7 ", "+5", "\u0663", "9" * 5_000):
            monkeypatch.setenv("ALTCHAIN_MAX_GENERATORS", bad)
            assert cli.main(argv) == 2, (argv, bad)
            err = capsys.readouterr().err
            assert err == f"error: ALTCHAIN_MAX_GENERATORS: {bad!r} is not a " \
                          "nonnegative integer\n", (argv, bad)
    assert not (tmp_path / "p.json").exists()
    # the alternating cohomology reads only the simplices, so it needs no
    # tuple budget; the full variant still does
    monkeypatch.setenv("ALTCHAIN_MAX_GENERATORS", "10")
    assert cli.main(["cohomology", torus, "--variant", "alternative"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "H^1 = Q^2"
    assert cli.main(["cohomology", torus, "--variant", "full"]) == 3
    assert "budget" in capsys.readouterr().err


def test_presentation_commands_default_to_the_one_budget(tmp_path, monkeypatch, capsys):
    # with the variable unset, a presentation gets the budget of every
    # other command, not a smaller one of its own; so does a library call
    monkeypatch.delenv("ALTCHAIN_MAX_GENERATORS", raising=False)
    budgets = record_presentation_budgets(monkeypatch)
    point = corpus_path("point")
    assert cli.main(["homology", point, "--variant", "alternative"]) == 0
    assert cli.main(["export-presentation", point, "-o", str(tmp_path / "p.json")]) == 0
    alt_chains.alt_chain_complex(load_corpus_complex("point"), 1)
    assert budgets == [DEFAULT_GENERATOR_BUDGET] * 3


def test_cli_cup_both_orders(tmp_path, capsys):
    # alternating degree-1 pair: the two orders differ by the sign (-1)^(1*1)
    alpha = {"format_version": 1, "degree": 1,
             "values": [[[0, 1], "1/1"], [[1, 0], "-1/1"]]}
    beta = {"format_version": 1, "degree": 1,
            "values": [[[1, 2], "1/1"], [[2, 1], "-1/1"]]}
    fa = tmp_path / "a.json"
    fb = tmp_path / "b.json"
    fa.write_text(json.dumps(alpha))
    fb.write_text(json.dumps(beta))
    out_ab = tmp_path / "ab.json"
    out_ba = tmp_path / "ba.json"
    assert cli.main(["cup", corpus_path("sphere_s2"), str(fa), str(fb),
                     "--alternative", "-o", str(out_ab)]) == 0
    assert cli.main(["cup", corpus_path("sphere_s2"), str(fb), str(fa),
                     "--alternative", "-o", str(out_ba)]) == 0
    from fractions import Fraction as F
    ab = json.loads(out_ab.read_text())
    ba = json.loads(out_ba.read_text())
    ab_vals = {tuple(k): F(v) for k, v in (tuple(e) for e in ab["values"])}
    ba_vals = {tuple(k): F(v) for k, v in (tuple(e) for e in ba["values"])}
    assert ab_vals == {k: -v for k, v in ba_vals.items()}
    assert ab_vals  # nonzero product


def test_cli_cup_plain(tmp_path, capsys):
    alpha = {"format_version": 1, "degree": 0, "values": [[[0], "2/1"]]}
    beta = {"format_version": 1, "degree": 0, "values": [[[0], "3/1"], [[1], "5/1"]]}
    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    fa.write_text(json.dumps(alpha))
    fb.write_text(json.dumps(beta))
    assert cli.main(["cup", corpus_path("point"), str(fa), str(fb)]) == 2  # vertex 1 missing
    fa2 = tmp_path / "a2.json"
    fa2.write_text(json.dumps({"format_version": 1, "degree": 0,
                               "values": [[[0], "2/1"]]}))
    assert cli.main(["cup", corpus_path("sphere_s2"), str(fa2), str(fb)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["values"] == [[[0], "6/1"]]


def test_cli_residual(tmp_path, capsys):
    # a closed alternating cochain: zero verdict
    closed = {"format_version": 1, "degree": 0, "values": [[[0], "1/1"]]}
    f = tmp_path / "closed.json"
    f.write_text(json.dumps(closed))
    assert cli.main(["residual", corpus_path("point"), str(f)]) == 0
    out = capsys.readouterr().out
    assert "exactly zero" in out

    # a non-closed alternating cochain on the solid tetrahedron: nonzero
    solid = {"format_version": 1, "name": "solid", "vertices": 4,
             "facets": [[0, 1, 2, 3]]}
    fc = tmp_path / "solid.json"
    fc.write_text(json.dumps(solid))
    alpha = {"format_version": 1, "degree": 1, "values": [
        [[0, 1], "1/1"], [[1, 0], "-1/1"],
        [[1, 2], "3/1"], [[2, 1], "-3/1"],
        [[2, 3], "-2/1"], [[3, 2], "2/1"],
        [[0, 2], "5/1"], [[2, 0], "-5/1"]]}
    fa = tmp_path / "alpha.json"
    fa.write_text(json.dumps(alpha))
    assert cli.main(["residual", str(fc), str(fa)]) == 0
    out = capsys.readouterr().out
    assert "nonzero" in out and "witness" in out

    # non-alternating input warns
    skew = {"format_version": 1, "degree": 1, "values": [[[0, 1], "1/1"]]}
    fs = tmp_path / "skew.json"
    fs.write_text(json.dumps(skew))
    assert cli.main(["residual", corpus_path("sphere_s2"), str(fs)]) == 0
    assert "not alternating" in capsys.readouterr().err


def test_cli_cup_and_residual_reject_bad_cochain_files(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"format_version": 1, "degree": 0,
                                "values": [[[0], "1/1"]]}))
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    missing = str(tmp_path / "missing.json")
    sphere = corpus_path("sphere_s2")
    argvs = [["cup", sphere, missing, str(good)],
             ["cup", sphere, str(good), str(listed)],
             ["residual", sphere, missing],
             ["residual", sphere, str(listed)]]
    # negative or boolean degrees, float or boolean vertices and values
    for k, bad in enumerate(({"degree": -1, "values": []},
                             {"degree": True, "values": []},
                             {"degree": 1, "values": [[[0, 1.0], "1/1"]]},
                             {"degree": 1, "values": [[[0, 1], 0.5]]},
                             {"degree": 1, "values": [[[0, True], "1/1"]]})):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(bad))
        argvs += [["cup", sphere, str(good), str(path)], ["residual", sphere, str(path)]]
    # past Python's parser limits: nesting depth, digits of a JSON integer
    # and of a value string; two values over coprime 3,000-digit
    # denominators, whose common denominator has 6,000 digits; one tuple
    # 200 times over distinct 1,000-digit denominators
    for k, text in enumerate(("[" * 100_000 + "]" * 100_000,
                              '{"degree": 0, "values": [[[0], ' + "9" * 4_301 + ']]}',
                              '{"degree": 0, "values": [[[0], "' + "9" * 5_000 + '"]]}',
                              json.dumps({"degree": 0, "values": [
                                  [[0], f"1/{10 ** 2999}"], [[1], f"1/{10 ** 2999 + 1}"]]}),
                              json.dumps({"degree": 0, "values": [
                                  [[0], f"1/{10 ** 999 + j}"] for j in range(200)]}))):
        path = tmp_path / f"limit{k}.json"
        path.write_text(text)
        argvs += [["cup", sphere, str(path), str(good)], ["residual", sphere, str(path)]]
    for argv in argvs:
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_cli_results_past_the_digit_limit_exit_2(tmp_path, capsys):
    # each input value has 3,000 digits, under the limit on reading; the
    # result has 6,000, which Python will not write as a decimal string
    big = write_json(tmp_path / "big.json", {"degree": 0, "values": [[[0], "9" * 3_000]]})
    edge = write_json(tmp_path / "edge.json", {"vertices": 2, "facets": [[0, 1]]})
    out = tmp_path / "out.json"
    for argv in (["cup", corpus_path("point"), big, big, "-o", str(out)],
                 ["cup", corpus_path("point"), big, big],
                 ["residual", edge, big, "-o", str(out)],
                 ["residual", edge, big]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == ("error: the result has an integer past Python's "
                                f"{sys.get_int_max_str_digits()}-digit limit\n"), argv
    assert not out.exists()


# every key any parser reads, so that drawn objects get past the
# unknown-field checks and reach the checks on values
PARSER_KEYS = ("format_version", "name", "provenance", "vertices", "facets",
               "degree", "values", "rows", "cols", "entries", "max_degree",
               "degrees", "free", "torsion", "boundaries",
               "0", "1")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(PARSER_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=10)


def json_input(*keys):
    return json_values | st.fixed_dictionaries(
        {}, optional={key: json_values for key in keys})


POINT = load_corpus_complex("point")
POINT_INDEX = enumerate_generators(POINT, 2)
# the point at cap 1: one free vertex, one torsion edge, a 1 x 1 boundary 1
POINT_PRESENTATION = alt_chains.presentation_to_json(alt_chains.alt_chain_complex(POINT, 1))


def read_boundary(data, **fields):
    """The presentation reader on the point at cap 1, with boundary 1 the
    drawn value and any of ``fields`` put into it when it is an object."""
    matrix = dict(data, **fields) if isinstance(data, dict) else data
    return alt_chains.presentation_from_json(dict(POINT_PRESENTATION, boundaries={"1": matrix}))


PARSERS = (  # each parser with the keys it reads
    (load_complex, ("format_version", "name", "provenance", "vertices", "facets")),
    (cochain_from_json, ("format_version", "degree", "values")),
    (lambda d: cochain_from_json(d, POINT_INDEX), ("format_version", "degree", "values")),
    (lambda d: read_boundary(d, format_version=2),  # drawn dimensions and triples
     ("rows", "cols", "entries")),
    (lambda d: read_boundary(d, format_version=2, rows=1, cols=1), ("entries",)),
    (alt_chains.presentation_from_json,
     ("format_version", "max_degree", "degrees", "boundaries")),
)


@settings(max_examples=300)
@given(st.sampled_from(PARSERS).flatmap(
    lambda parser: st.tuples(st.just(parser[0]), json_input(*parser[1]))))
def test_parsers_return_a_value_or_raise_format_error(parser_and_data):
    # arbitrary JSON values: each parser returns or raises FormatError,
    # never another exception
    parse, data = parser_and_data
    try:
        parse(data)
    except FormatError:
        pass


VALID_COMPLEXES = ({"vertices": 1, "facets": [[0]]},
                   {"vertices": 3, "facets": [[0, 1], [1, 2], [0, 2]]},
                   {"vertices": 3, "facets": [[0, 1, 2]], "name": "triangle"})
VALID_COCHAINS = ({"degree": 0, "values": [[[0], "1/1"]]},
                  {"degree": 1, "values": [[[0, 1], "1/2"], [[1, 0], "-1/2"]]},
                  {"degree": 2, "values": [[[0, 1, 2], "3"]]})


@st.composite
def cli_invocations(draw):
    """A subcommand with small degree caps and JSON inputs, valid or drawn
    like the parsers' inputs: (argv naming files by key, {key: value})."""
    def valid_or_drawn(valid, keys):
        return draw(st.sampled_from(valid) if draw(st.booleans()) else json_input(*keys))

    command = draw(st.sampled_from(("homology", "cohomology", "verify", "cup",
                                    "residual", "export-presentation")))
    inputs = {"complex": valid_or_drawn(VALID_COMPLEXES, PARSERS[0][1])}
    argv = [command, "complex"]
    if command in ("cup", "residual"):
        inputs["alpha"] = valid_or_drawn(VALID_COCHAINS, PARSERS[1][1])
        argv.append("alpha")
    if command == "cup":
        inputs["beta"] = valid_or_drawn(VALID_COCHAINS, PARSERS[1][1])
        argv += ["beta"] + draw(st.sampled_from(([], ["--alternative"])))
    if command == "homology":
        argv += ["--variant", draw(st.sampled_from(("alternative", "ordered", "simplicial"))),
                 "--coeff", draw(st.sampled_from("ZQ"))]
    if command == "cohomology":
        argv += ["--variant", draw(st.sampled_from(("full", "alternative")))]
    if command == "verify":
        argv += ["--cases", str(draw(st.integers(0, 3))),
                 "--seed", str(draw(st.integers(0, 9)))]
    # cup and residual may keep their default cap, p + q and 2p + 1
    if command not in ("cup", "residual") or draw(st.booleans()):
        argv += ["--max-dim", str(draw(st.integers(0, 2)))]
    if command in ("cup", "residual", "export-presentation"):
        argv += ["--output", "output"]
    return argv, inputs


@settings(max_examples=200)
@given(cli_invocations())
def test_cli_exits_with_a_code_on_any_input(invocation):
    # nothing escapes main: 0, or 2 or 3 ending in a one-line error, or 1
    # from verify when its report lists a failing suite
    argv, inputs = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: os.path.join(tmp, key + ".json") for key in [*inputs, "output"]}
        for key, value in inputs.items():
            with open(paths[key], "w") as fh:
                json.dump(value, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([paths.get(arg, arg) for arg in argv])
    if code == 1:
        assert argv[0] == "verify" and "[FAIL]" in out.getvalue(), argv
    else:
        assert code in (0, 2, 3), (argv, code)
    if code in (2, 3):  # a warning may come first
        *_, last = err.getvalue().splitlines()
        assert last.startswith("error: ") and "Traceback" not in err.getvalue(), \
            (argv, err.getvalue())


def test_cli_rejects_negative_max_dim(tmp_path, capsys):
    # a usage error (exit 2) before any work, never a traceback or exit 1
    point = corpus_path("point")
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"format_version": 1, "degree": 0,
                                "values": [[[0], "1/1"]]}))
    out = tmp_path / "pres.json"
    for argv, option in ((["homology", point, "--variant", "ordered"], "--max-dim"),
                         (["homology", point, "--variant", "alternative"], "--max-dim"),
                         (["homology", point, "--variant", "simplicial"], "--max-dim"),
                         (["cohomology", point], "--max-dim"),
                         (["verify", point], "--max-dim"),
                         (["verify", point, "--max-dim", "1"], "--cases"),
                         (["cup", point, str(good), str(good)], "--max-dim"),
                         (["residual", point, str(good)], "--max-dim"),
                         (["export-presentation", point, "-o", str(out)], "--max-dim")):
        for bad in ("-1", "x", "+1", " 1", "1_0", "1.0", "\u0663", "9" * 5_000):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + [option, bad])
            assert exc.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines()[-1].endswith(
                f"error: argument {option}: {bad!r} is not a nonnegative "
                "integer"), argv
    assert not out.exists()


def test_cli_export_presentation(tmp_path, capsys):
    out = tmp_path / "pres.json"
    assert cli.main(["export-presentation", corpus_path("rp2_6"),
                     "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    # format_version 2: the relations follow from the torsion generators
    assert data["format_version"] == 2 and "relations" not in data
    pres = alt_chains.presentation_from_json(data)
    assert [str(g) for g in homology_presented(pres)] == ["Z", "Z/2", "0"]
    # the reader checks the law of a presented complex, so it must accept
    # every export, among them those the benchmark reads back (klein_8 at
    # cap 4, sd(torus_7) at cap 3)
    cases = [(name, load_corpus_complex(name), 3) for name in CORPUS_NAMES]
    cases += [("klein_8", load_corpus_complex("klein_8"), 4),
              ("sd_torus_7", subdivision(load_corpus_complex("torus_7")), 3)]
    for name, K, cap in cases:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"vertices": K.vertex_count,
                                    "facets": [list(f) for f in K.facets]}))
        assert cli.main(["export-presentation", str(path), "--max-dim", str(cap),
                         "-o", str(out)]) == 0
        back = alt_chains.presentation_from_json(json.loads(out.read_text()))
        built = alt_chains.alt_chain_complex(K, cap)
        assert (back.free_generators, back.torsion_generators, back.columns) == \
            (built.free_generators, built.torsion_generators, built.columns), name
        reference = ih.simplicial_homology(K) + [ih.AbelianGroup(0)] * cap
        assert homology_presented(back) == reference[:cap], name


def test_cli_verify_corpus_text_output(capsys):
    code = cli.main(["verify", "--corpus", "--cases", "5", "--max-dim", "2"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert out.count("[") == len(verify.REGISTRY) or "FAIL" in out


def test_cli_verify_corpus_report_is_golden(tmp_path, capsys):
    # the text and the JSON report of a fixed seed are pinned byte for
    # byte; a change to either is a deliberate report change and rewrites
    # these files
    data = DATA
    report = tmp_path / "report.json"
    code = cli.main(["verify", "--corpus", "--seed", "5", "--cases", "10",
                     "--max-dim", "3", "--json", str(report)])
    assert code == 1
    text = capsys.readouterr().out
    assert text == (data / "verify_corpus_seed5_cases10_D3.txt").read_text()
    assert report.read_bytes() == (data / "verify_corpus_seed5_cases10_D3.json").read_bytes()


def test_cli_verify_sphere_d3_report_is_golden(tmp_path, capsys):
    # the shape of the benchmark's S^2 job at degree cap 3: every suite runs
    # its quotient, prism and cup kernels at D=3, so a kernel change that
    # moves a case count or a counterexample shows here
    report = tmp_path / "report.json"
    code = cli.main(["verify", corpus_path("sphere_s2"), "--seed", "1", "--cases", "20",
                     "--max-dim", "3", "--json", str(report)])
    assert code == 1
    assert capsys.readouterr().out == (DATA / "verify_sphere_s2_seed1_cases20_D3.txt").read_text()
    assert report.read_bytes() == (DATA / "verify_sphere_s2_seed1_cases20_D3.json").read_bytes()


def test_cli_verify_corpus_d2_report_is_golden(tmp_path, capsys):
    # the degree cap of the benchmark's corpus and sd(S^2) jobs: the cup,
    # projector and quotient kernels at D=2, whose counterexamples and case
    # counts the D=3 reports do not pin
    report = tmp_path / "report.json"
    code = cli.main(["verify", "--corpus", "--seed", "1", "--cases", "5",
                     "--max-dim", "2", "--json", str(report)])
    assert code == 1
    assert capsys.readouterr().out == (DATA / "verify_corpus_seed1_cases5_D2.txt").read_text()
    assert report.read_bytes() == (DATA / "verify_corpus_seed1_cases5_D2.json").read_bytes()


def test_cli_verify_zero_cases(capsys):
    # randomized portions drop to zero cases; exhaustive checks still run
    code = cli.main(["verify", corpus_path("point"), "--cases", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "face-permutation-sign" in out


def test_cli_verify_zero_cases_runs_every_order_pattern(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli.main(["verify", corpus_path("torus_7"), "--cases", "0",
                     "--json", str(report)]) == 0
    cases = {r["id"]: r["cases"] for r in json.loads(report.read_text())["results"]}
    # the patterns of length 1..3 under S_1..S_3, and of length 2..4 under S_2..S_4
    assert cases["face-class-compatibility"] == 1 + 3 * 2 + 13 * 6
    assert cases["boundary-of-reordered-generator"] == 3 * 2 + 13 * 6 + 75 * 24


# ---------------------------------------------------------------------------
# output files

DATA = Path(__file__).resolve().parent / "data"
SOLID_TETRAHEDRON = {"format_version": 1, "name": "solid", "vertices": 4,
                     "facets": [[0, 1, 2, 3]]}
EDGE_01 = {"format_version": 1, "degree": 1,
           "values": [[[0, 1], "1/1"], [[1, 0], "-1/1"]]}
EDGE_12 = {"format_version": 1, "degree": 1,
           "values": [[[1, 2], "1/1"], [[2, 1], "-1/1"]]}
NOT_CLOSED = {"format_version": 1, "degree": 1, "values": [
    [[0, 1], "1/1"], [[1, 0], "-1/1"], [[1, 2], "3/1"], [[2, 1], "-3/1"],
    [[2, 3], "-2/1"], [[3, 2], "2/1"], [[0, 2], "5/1"], [[2, 0], "-5/1"]]}


def write_json(path, value) -> str:
    path.write_text(json.dumps(value))
    return str(path)


def test_cli_file_outputs_are_pinned(tmp_path, capsys):
    # each writer's bytes, to a file and to stdout ('-o -'); residual
    # prints its verdict before the cochain
    a = write_json(tmp_path / "a.json", EDGE_01)
    b = write_json(tmp_path / "b.json", EDGE_12)
    solid = write_json(tmp_path / "solid.json", SOLID_TETRAHEDRON)
    alpha = write_json(tmp_path / "alpha.json", NOT_CLOSED)
    sphere = corpus_path("sphere_s2")
    for name, argv in (
            ("presentation_sphere_s2_D2_v2.json",
             ["export-presentation", sphere, "--max-dim", "2"]),
            ("cup_alternative_sphere_s2_edges.json", ["cup", sphere, a, b, "--alternative"]),
            ("residual_solid_tetrahedron.json", ["residual", solid, alpha])):
        pinned = (DATA / name).read_bytes()
        out = tmp_path / name
        assert cli.main(argv + ["-o", str(out)]) == 0, argv
        verdict = capsys.readouterr().out
        assert out.read_bytes() == pinned, name
        assert cli.main(argv + ["-o", "-"]) == 0, argv
        assert capsys.readouterr().out.encode() == verdict.encode() + pinned, name


def test_cli_residual_verdicts_are_pinned(tmp_path, capsys):
    # the witness and max |numerator| read each value in lowest terms: on
    # the solid 4-simplex every value is +-1/d with d in {9, 18, 20, 30},
    # so the numerators over the common denominator 180 reach 20
    solid = write_json(tmp_path / "solid.json", SOLID_TETRAHEDRON)
    solid_4 = write_json(tmp_path / "solid_4.json", {"vertices": 5, "facets": [[0, 1, 2, 3, 4]]})
    alpha = write_json(tmp_path / "alpha.json", NOT_CLOSED)
    fractional = write_json(tmp_path / "fractional.json", {"degree": 1, "values": [
        [[0, 1], "1/2"], [[1, 0], "-1/2"], [[0, 2], "5/6"], [[2, 0], "-5/6"],
        [[1, 2], "3/4"], [[2, 1], "-3/4"], [[2, 3], "-2/3"], [[3, 2], "2/3"],
        [[3, 4], "1/5"], [[4, 3], "-1/5"]]})
    # on the path 0-1-2 with values 0, 4, 3 the residual is 8 on (0, 1) and
    # -7/2 on (1, 2): the witness is an integer over the denominator 2
    path = write_json(tmp_path / "path.json", {"vertices": 3, "facets": [[0, 1], [1, 2]]})
    heights = write_json(tmp_path / "heights.json", {"degree": 0, "values": [[[1], 4], [[2], 3]]})
    for argv, verdict in (
            (["residual", solid, alpha],
             "residual: nonzero on 24 generators; max |numerator| = 2\n"
             "witness: value -2/3 on generator [3, 2, 1, 0]\n"),
            (["residual", solid_4, fractional],
             "residual: nonzero on 96 generators; max |numerator| = 1\n"
             "witness: value 1/20 on generator [4, 3, 2, 1]\n"),
            (["residual", path, heights],
             "residual: nonzero on 4 generators; max |numerator| = 8\n"
             "witness: value -8 on generator [1, 0]\n")):
        assert cli.main(argv + ["-o", str(tmp_path / "out.json")]) == 0, argv
        assert capsys.readouterr().out == verdict, argv


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    # a missing directory or a directory in place of the file is a usage
    # error with one line, not a traceback and not exit 1
    point, sphere = corpus_path("point"), corpus_path("sphere_s2")
    a = write_json(tmp_path / "a.json", EDGE_01)
    for path in (str(tmp_path / "missing" / "out.json"), str(tmp_path)):
        for argv in (["export-presentation", point, "-o", path],
                     ["cup", sphere, a, a, "-o", path],
                     ["residual", sphere, a, "-o", path],
                     ["verify", point, "--cases", "1", "--json", path]):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1, err


def test_cochain_commands_build_no_generator_list(tmp_path, monkeypatch, capsys):
    # cup, projected cup, residual and alternating cohomology need only
    # membership and the simplices, never a degree's tuple list
    def refuse(self, n):
        raise AssertionError(f"degree {n} tuple list built")
    monkeypatch.setattr(GeneratorIndex, "generators", refuse)
    monkeypatch.setattr(GeneratorIndex, "positions", refuse)
    boundary_6 = write_json(tmp_path / "boundary_6.json", {
        "vertices": 7, "facets": [list(c) for c in itertools.combinations(range(7), 6)]})
    a = write_json(tmp_path / "a.json", cochain_to_json(
        alternating_cochain((0, 1, 2)) + alternating_cochain((1, 2, 3), 2)))
    b = write_json(tmp_path / "b.json", cochain_to_json(
        alternating_cochain((2, 3, 4)) + alternating_cochain((2, 4, 5), -1)))
    alpha = write_json(tmp_path / "alpha.json", NOT_CLOSED)
    out = str(tmp_path / "out.json")
    for argv in (["cup", boundary_6, a, b, "-o", out],
                 ["cup", boundary_6, a, b, "--alternative", "-o", out],
                 ["residual", boundary_6, alpha, "--max-dim", "4", "-o", out],
                 ["cohomology", boundary_6, "--variant", "alternative", "--max-dim", "4"]):
        assert cli.main(argv) == 0, argv
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("residual: nonzero on ")
    assert lines[-4:] == ["H^0 = Q", "H^1 = 0", "H^2 = 0", "H^3 = 0"]
    with pytest.raises(AssertionError, match="tuple list built"):
        cli.main(["cohomology", boundary_6, "--variant", "full", "--max-dim", "4"])


def test_presentation_commands_build_no_dense_matrix(tmp_path, monkeypatch, capsys):
    # a presentation stays sparse from alt_chain_complex through its homology,
    # the registry, the JSON writer and the reader
    def refuse(self):
        raise AssertionError("dense matrix built")
    monkeypatch.setattr(alt_chains.AltComplexPresentation, "boundaries", property(refuse))
    out = tmp_path / "pres.json"
    klein = corpus_path("klein_8")
    assert cli.main(["export-presentation", klein, "--max-dim", "3", "-o", str(out)]) == 0
    assert cli.main(["homology", klein, "--variant", "alternative", "--max-dim", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == ["H_0 = Z", "H_1 = Z + Z/2", "H_2 = 0"]
    pres = alt_chains.presentation_from_json(json.loads(out.read_text()))
    assert [str(g) for g in homology_presented(pres)] == ["Z", "Z + Z/2", "0"]
    # exit 1: only the known-red projected-cup-associativity fails
    assert cli.main(["verify", "--corpus", "--cases", "2", "--max-dim", "2"]) == 1
    assert capsys.readouterr().out.count("[FAIL]") == 1


def patch_everywhere(monkeypatch, fn, replacement):
    """Replace ``fn`` under every name an altchain module binds it to."""
    for modname, mod in list(sys.modules.items()):
        if modname == "altchain" or modname.startswith("altchain."):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, replacement)


def refuse_public_functions(monkeypatch, *modules):
    """Make every public function of ``modules`` raise wherever it is bound:
    the functions whose calls the benchmark's tracer counts."""
    public = [(f"{mod.__name__}.{attr}", obj) for mod in modules
              for attr, obj in list(vars(mod).items())
              if not attr.startswith("_") and inspect.isfunction(obj)
              and obj.__module__ == mod.__name__]
    assert public
    for name, fn in public:
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called")
        patch_everywhere(monkeypatch, fn, refuse)


def test_cochain_commands_call_no_quotient_prism_or_registry(tmp_path, monkeypatch, capsys):
    # cohomology, cup and residual run on cochains and the tuple-complex
    # elimination alone, as the cochain_ops workload predicts: no public
    # function of alt_chains, homotopy_prism or verify is called
    refuse_public_functions(monkeypatch, alt_chains, homotopy_prism, verify)
    torus, sphere = corpus_path("torus_7"), corpus_path("sphere_s2")
    a = write_json(tmp_path / "a.json", EDGE_01)
    b = write_json(tmp_path / "b.json", EDGE_12)
    alpha = write_json(tmp_path / "alpha.json", NOT_CLOSED)
    out = str(tmp_path / "out.json")
    for variant in ("full", "alternative"):
        assert cli.main(["cohomology", torus, "--variant", variant, "--max-dim", "3"]) == 0
    for argv in (["cup", sphere, a, b, "-o", out],
                 ["cup", sphere, a, b, "--alternative", "-o", out],
                 ["residual", sphere, alpha, "-o", out]):
        assert cli.main(argv) == 0, argv
    lines = capsys.readouterr().out.splitlines()
    assert lines[:6] == ["H^0 = Q", "H^1 = Q^2", "H^2 = Q"] * 2
    assert lines[6:] == ["residual: exactly zero"]
    with pytest.raises(AssertionError, match="altchain.alt_chains.alt_chain_complex called"):
        cli.main(["homology", torus])


def test_presentation_commands_call_no_cochain_prism_or_registry(tmp_path, monkeypatch, capsys):
    # homology and export-presentation build tuples, face columns and
    # groups only, as the homology_ladder workload predicts: no public
    # function of permutations, cochain_algebra, homotopy_prism or verify
    # is called
    refuse_public_functions(monkeypatch, permutations, cochain_algebra, homotopy_prism,
                            verify)
    klein = corpus_path("klein_8")
    out = tmp_path / "out.json"
    for argv in (["homology", klein, "--variant", "alternative"],
                 ["homology", klein, "--variant", "ordered"],
                 ["homology", klein, "--variant", "simplicial"],
                 ["homology", klein, "--coeff", "Q"],
                 ["export-presentation", klein, "-o", str(out)]):
        assert cli.main(argv) == 0, argv
    assert capsys.readouterr().out.splitlines() == [
        "H_0 = Z", "H_1 = Z + Z/2", "H_2 = 0"] * 3 + ["H_0 = Q", "H_1 = Q", "H_2 = 0"]
    assert json.loads(out.read_text())["max_degree"] == 3
    edge = write_json(tmp_path / "edge.json", EDGE_01)
    with pytest.raises(AssertionError, match="altchain.cochain_algebra.cochain_from_json"):
        cli.main(["cup", klein, edge, edge])


def test_commands_read_no_matrix_file_and_compose_no_matrices(tmp_path, monkeypatch, capsys):
    # no subcommand reads a presentation file, and no subcommand but verify
    # composes boundaries: the chain-complex law is checked where a
    # presentation is read in and by the registry, not on the way to a
    # group or a file
    real, composed = ih.product_entries, []

    def spy(outer, inner):
        composed.append(len(inner))
        return real(outer, inner)

    def refuse(*args):
        raise AssertionError("presentation read")

    patch_everywhere(monkeypatch, real, spy)
    patch_everywhere(monkeypatch, alt_chains.presentation_from_json, refuse)
    klein, sphere = corpus_path("klein_8"), corpus_path("sphere_s2")
    a = write_json(tmp_path / "a.json", EDGE_01)
    b = write_json(tmp_path / "b.json", EDGE_12)
    alpha = write_json(tmp_path / "alpha.json", NOT_CLOSED)
    out = str(tmp_path / "out.json")
    for argv in (["homology", klein, "--variant", "alternative"],
                 ["homology", klein, "--variant", "ordered"],
                 ["homology", klein, "--variant", "simplicial"],
                 ["cohomology", klein],
                 ["cohomology", klein, "--variant", "alternative"],
                 ["cup", sphere, a, b, "-o", out],
                 ["cup", sphere, a, b, "--alternative", "-o", out],
                 ["residual", sphere, alpha, "-o", out],
                 ["export-presentation", klein, "-o", out]):
        assert cli.main(argv) == 0, argv
    assert composed == []
    assert cli.main(["verify", corpus_path("point"), "--cases", "2"]) == 0
    assert composed  # quotient-boundary and ordered-homology-agreement
