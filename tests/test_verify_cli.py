import contextlib
import dataclasses
import io
import itertools
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from altchain import alt_chains, cli, enumerate_generators, permutations, verify
from altchain.cochain_algebra import alternating_cochain, cochain_from_json, cochain_to_json
from altchain.complex_model import GeneratorIndex, load_complex
from altchain.corpus import load_corpus_complex
from altchain.errors import FormatError
from altchain.integer_homology import IntegerMatrix, homology_presented, matrix_from_json
from altchain.permutations import Permutation


def test_registry_ids_unique_and_described():
    ids = [suite_id for suite_id, _, _ in verify.REGISTRY]
    assert len(ids) == len(set(ids))
    for suite_id, statement, fn in verify.REGISTRY:
        assert suite_id == suite_id.lower()
        assert len(statement) > 20
        assert callable(fn)


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


def test_report_determinism(sphere, point):
    pair = [("point", point), ("sphere_s2", sphere)]
    a = verify.run_all(pair, seed=9, cases=25)
    b = verify.run_all(pair, seed=9, cases=25)
    assert a.to_json() == b.to_json()
    c = verify.run_all(pair, seed=10, cases=25)
    assert c.to_json() != a.to_json() or c.all_passed == a.all_passed


def test_mutation_in_face_permutation_is_caught(point, monkeypatch):
    real = permutations.induced_face_perm

    def broken(s, i):
        out = real(s, i)
        if len(out) >= 2 and i == 0:
            images = list(out.images)
            images[0], images[1] = images[1], images[0]
            return Permutation(images)
        return out

    monkeypatch.setattr(permutations, "induced_face_perm", broken)
    report = verify.run_all([("point", point)], seed=0, cases=5)
    failed = {r.suite_id for r in report.results if not r.passed}
    assert "face-permutation-sign" in failed
    entry = next(r for r in report.results
                 if r.suite_id == "face-permutation-sign")
    assert entry.counterexample["i"] == 0
    assert "images" in entry.counterexample


def test_mutation_in_canonicalize_is_caught(sphere, monkeypatch):
    real = alt_chains.canonicalize

    def broken(g):
        t, is_torsion, coeff = real(g)
        return t, is_torsion, abs(coeff)  # drop every orientation sign

    monkeypatch.setattr(alt_chains, "canonicalize", broken)
    report = verify.run_all([("sphere_s2", sphere)], seed=0, cases=5)
    failed = {r.suite_id for r in report.results if not r.passed}
    assert failed & {"quotient-boundary", "face-class-compatibility",
                     "quotient-homology-agreement",
                     "torsion-boundary-cancellation"}


def test_mutation_in_torsion_boundary_is_caught(point, monkeypatch):
    # the free block alone reproduces simplicial homology, so only the
    # torsion block can turn quotient-homology-agreement red
    real = alt_chains.alt_chain_complex

    def broken(K, max_degree, **kwargs):
        pres = real(K, max_degree, **kwargs)
        matrices = [IntegerMatrix(M.rows, M.cols, {
            (r, c): v for (r, c), v in M.entries.items()
            if c < len(pres.free_generators[n])})  # free columns only
            for n, M in enumerate(pres.matrices)]
        return dataclasses.replace(pres, matrices=tuple(matrices))

    monkeypatch.setattr(alt_chains, "alt_chain_complex", broken)
    report = verify.run_all([("point", point)], seed=0, cases=5)
    entry = next(r for r in report.results
                 if r.suite_id == "quotient-homology-agreement")
    assert not entry.passed
    assert entry.counterexample == {"complex": "point", "degree": 1,
                                    "quotient": "Z/2", "simplicial": "0"}


def test_mutation_in_quotient_boundary_is_caught(point, monkeypatch):
    # the presentation is built without alt_chains.boundary, and dropping
    # the torsion images there keeps d d = 0; the prism identity
    # d h + h d = g - f on the quotient is what reads them
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
        matrices = list(pres.matrices)
        matrices[3] = IntegerMatrix(1, 1, {(0, 0): 1})
        return dataclasses.replace(pres, matrices=tuple(matrices))

    monkeypatch.setattr(alt_chains, "alt_chain_complex", broken)
    report = verify.run_all([("point", point)], seed=0, cases=5)
    failed = {r.suite_id: r.counterexample for r in report.results if not r.passed}
    # the homology of the presented complex cannot be computed either
    assert set(failed) == {"quotient-boundary", "quotient-homology-agreement"}
    assert failed["quotient-boundary"] == {"complex": "point", "degree": 2,
                                           "row": 0, "col": 0, "value": 1}
    assert "mod 2" in failed["quotient-homology-agreement"]["reason"]


def test_mutation_dropping_a_free_generator_is_caught(sphere, monkeypatch):
    # the last triangle of S^2 goes, with its column of the top boundary;
    # the rest stays a consistent presented complex with the same homology
    # below the cap, so only dual-dimension-match (and the known-red
    # projected-cup-associativity) fails
    real = alt_chains.alt_chain_complex

    def broken(K, max_degree, **kwargs):
        pres = real(K, max_degree, **kwargs)
        free = list(pres.free_generators)
        matrices = list(pres.matrices)
        f = len(free[max_degree])
        free[max_degree] = free[max_degree][:-1]
        top = matrices[max_degree]
        matrices[max_degree] = IntegerMatrix(top.rows, top.cols - 1, {
            (r, c - (c >= f)): v for (r, c), v in top.entries.items() if c != f - 1})
        return dataclasses.replace(pres, free_generators=tuple(free),
                                   matrices=tuple(matrices))

    monkeypatch.setattr(alt_chains, "alt_chain_complex", broken)
    report = verify.run_all([("sphere_s2", sphere)], seed=0, cases=5, degree_cap=2)
    failed = {r.suite_id: r.counterexample for r in report.results if not r.passed}
    assert set(failed) <= {"dual-dimension-match", "projected-cup-associativity"}
    assert failed["dual-dimension-match"] == {"complex": "sphere_s2", "degree": 2,
                                              "alternating_dim": 4,
                                              "free_generators": 3}


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


def test_cli_budget_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ALTCHAIN_MAX_GENERATORS", "10")
    assert cli.main(["homology", corpus_path("torus_7"),
                     "--variant", "ordered"]) == 3
    err = capsys.readouterr().err
    assert "budget" in err
    # ASCII digits only, the rule of --max-dim and --cases, though int()
    # takes the last four and -1 is an integer
    for bad in ("junk", "", "-1", "1_000", " 7 ", "+5", "\u0663"):
        monkeypatch.setenv("ALTCHAIN_MAX_GENERATORS", bad)
        assert cli.main(["homology", corpus_path("torus_7"),
                         "--variant", "ordered"]) == 2, bad
        err = capsys.readouterr().err
        assert err == f"error: ALTCHAIN_MAX_GENERATORS: {bad!r} is not a " \
                      "nonnegative integer\n", bad


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
    for argv in argvs:
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv


# every key any parser reads, so that drawn objects get past the
# unknown-field checks and reach the checks on values
PARSER_KEYS = ("format_version", "name", "provenance", "vertices", "facets",
               "degree", "values", "rows", "cols", "entries", "max_degree",
               "degrees", "free", "torsion", "boundaries", "relations",
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
PARSERS = (  # each parser with the keys it reads
    (load_complex, ("format_version", "name", "provenance", "vertices", "facets")),
    (cochain_from_json, ("format_version", "degree", "values")),
    (lambda d: cochain_from_json(d, POINT_INDEX), ("format_version", "degree", "values")),
    (matrix_from_json, ("format_version", "rows", "cols", "entries")),
    (alt_chains.presentation_from_json,
     ("format_version", "max_degree", "degrees", "boundaries", "relations")),
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
        for bad in ("-1", "x", "+1", " 1", "1_0", "1.0", "\u0663"):
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


def test_cli_verify_zero_cases(capsys):
    # randomized portions drop to zero cases; exhaustive checks still run
    code = cli.main(["verify", corpus_path("point"), "--cases", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "face-permutation-sign" in out


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
    monkeypatch.setattr(IntegerMatrix, "to_dense", refuse)
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
