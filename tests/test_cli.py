import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import PHI1_TEXT, norm
from foml.cli import main
from foml.formulas import is_literal
from foml.kripke import check, model_from_json, validate_model
from foml.tableau import SAT, certificate_from_json, search, verify_tableau
from foml.testgen import GenConfig, differential_run


SIMPLE_TEXT = "<> forall x. exists y. [] P(x,y)"
DEMO_TEXT = "(exists x . [] P(x)) & (<> forall y . Q(y, y))"
GOLDEN_CERTIFICATE = Path(__file__).parent / "data" / "phi1_certificate.json"


@pytest.fixture()
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_sat_writes_certificate(runner, tmp_path, phi1):
    path = write(tmp_path, "phi.foml", PHI1_TEXT)
    result = runner.invoke(main, ["sat", path])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "SAT"
    cert = certificate_from_json((tmp_path / "phi.foml.cert.json").read_text())
    assert verify_tableau(cert, phi1) == []


def test_sat_writes_a_deep_certificate_in_one_line(runner, tmp_path):
    """A 300-literal conjunction makes a 300-deep tableau chain. Its
    certificate is one line well under a megabyte (indented JSON took 39 MB)
    and reads back to the same tree. Trees are compared by their walks; a
    `TableauNode` compares by identity, so `==` on two deep trees returns
    at once."""
    text = " & ".join(f"P{i}" for i in range(300))
    path = write(tmp_path, "flat.foml", text)
    result = runner.invoke(main, ["sat", path])
    assert result.exit_code == 0, result.output
    blob = (tmp_path / "flat.foml.cert.json").read_text()
    assert blob.count("\n") == 1 and blob.endswith("\n")
    assert len(blob.encode()) < 1_000_000
    theta = norm(text)
    cert = certificate_from_json(blob)
    assert verify_tableau(cert, theta) == []

    def states(t):
        return [(w, n.gamma, n.s) for w, n in t.walk()]

    tree = search(theta).tableau
    assert states(cert) == states(tree)
    assert (cert == tree) is False


def test_sat_certifies_a_1500_literal_conjunction(runner, tmp_path):
    """`print_formula` runs on an explicit stack, so `foml sat` writes the
    certificate of a conjunction nested 1,500 deep, and `foml verify`
    accepts it: the parser reads a flat conjunction in a loop."""
    path = write(tmp_path, "conj.foml", " & ".join(f"P{i}(x)" for i in range(1500)))
    result = runner.invoke(main, ["sat", path])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["verify", path + ".cert.json"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == [
        "VALID", "the model satisfies theta at its root"
    ]


@pytest.mark.parametrize(
    "text",
    [
        "~" * 3000 + "P(x)",
        "[] " * 1200 + "P(x)",
        "(" * 1200 + "P(x)" + ")" * 1200,
        "exists x . [] " * 400 + "P(x)",
    ],
    ids=[
        "3000-nested-negations", "1200-nested-boxes", "1200-nested-parentheses",
        "400-exists-box-pairs",
    ],
)
def test_sat_decides_input_nested_past_the_recursion_limit(runner, tmp_path, text):
    """The parser is one loop over an explicit operator stack, so prefix
    operators, parentheses and quantifier heads nest to any depth; each of
    these is SAT and its certificate verifies."""
    path = write(tmp_path, "deep.foml", text)
    result = runner.invoke(main, ["sat", path])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0] == "SAT"
    result = runner.invoke(main, ["verify", path + ".cert.json"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0] == "VALID"


def test_verify_exits_3_where_the_model_check_nests_too_deeply(runner, tmp_path):
    """`kripke.check` still recurses through modalities: the certificate of
    1,200 nested `<>` is written, and checking its model exits 3."""
    path = write(tmp_path, "deep.foml", "<> " * 1200 + "P")
    assert runner.invoke(main, ["sat", path]).exit_code == 0
    result = runner.invoke(main, ["verify", path + ".cert.json"])
    assert result.exit_code == 3
    assert result.stderr == "error: input nested too deeply to process\n"


def test_sat_renames_an_input_binder_that_carries_the_separator(runner, tmp_path):
    """`@` joins instance binder names; an input binder that carries it is
    renamed on loading, and the certificate verifies. (A free variable that
    carries it is an input error: `test_bad_input_exits_3_with_one_error_line`.)"""
    path = write(tmp_path, "sep.foml", "<> forall x@v0 . exists y . [] P(x@v0, y)")
    result = runner.invoke(main, ["sat", path])
    assert result.exit_code == 0, result.output
    assert '"theta": "<> forall v0. exists y. [] P(v0, y)"' in (
        tmp_path / "sep.foml.cert.json"
    ).read_text()
    assert runner.invoke(main, ["verify", path + ".cert.json"]).exit_code == 0


def test_sat_json_format(runner, tmp_path):
    path = write(tmp_path, "phi.foml", SIMPLE_TEXT)
    result = runner.invoke(main, ["sat", path, "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["status"] == "sat"
    assert payload["certificate"].endswith(".cert.json")


def test_verify_reads_back_a_certificate(runner, tmp_path):
    """`foml verify` rebuilds the tree from the certificate's choices,
    verifies it and its model, and says whether a leaf violation is left."""
    deep = write(tmp_path, "deep.foml", PHI1_TEXT)
    simple = write(tmp_path, "simple.foml", SIMPLE_TEXT)
    for path in (deep, simple):
        assert runner.invoke(main, ["sat", path]).exit_code == 0
    result = runner.invoke(main, ["verify", deep + ".cert.json"])
    assert result.exit_code == 0, result.stderr
    assert result.output == "VALID\n1 leaf violation left in the model\n"
    result = runner.invoke(main, ["verify", simple + ".cert.json"])
    assert result.exit_code == 0, result.stderr
    assert result.output == "VALID\nthe model satisfies theta at its root\n"
    result = runner.invoke(main, ["verify", deep + ".cert.json", "--format", "json"])
    assert json.loads(result.output) == {"status": "valid", "leaf_violations": 1}
    assert result.output == '{"leaf_violations": 1, "status": "valid"}\n'


def test_verify_applies_the_forest_bound(runner, monkeypatch):
    """`foml verify` audits each forest against `forest_size_bound`, as
    `foml difftest` does."""
    monkeypatch.setattr("foml.extraction.forest_size_bound", lambda psi, roots: 0)
    result = runner.invoke(main, ["verify", str(GOLDEN_CERTIFICATE)])
    assert result.exit_code == 3
    assert result.stderr == (
        "error: invalid certificate: forest at r.0 has 3 nodes, bound 0\n"
    )


def test_verify_and_difftest_share_one_root_check(runner, tmp_path, monkeypatch):
    """With a checker that rejects every compound formula, theta fails at
    the root, and `foml verify` and `differential_run` say so in one
    message. demo.foml's model has no forest leaf, so no leaf violation is
    left to skip the root check."""
    path = write(tmp_path, "demo.foml", DEMO_TEXT)
    assert runner.invoke(main, ["sat", path]).exit_code == 0
    monkeypatch.setattr(
        "foml.extraction.check",
        lambda model, w, sigma, phi: is_literal(phi) and check(model, w, sigma, phi),
    )
    message = "no leaf violations remain but the root check fails"
    result = runner.invoke(main, ["verify", path + ".cert.json"])
    assert result.exit_code == 3
    assert result.stderr == f"error: invalid certificate: {message}\n"
    report = differential_run(GenConfig(seed=2026), 5, (1, 1, 1))
    sat = [rec for rec in report["records"] if rec["tableau"] == SAT]
    assert sat
    assert all(rec["problems"] == [message] for rec in sat)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(nodes=doc["nodes"] - 1),
         "error: invalid certificate: the replay ran past its budget: tableau "
         "node budget exceeded at r.0.2.5 (work count 46)"),
        (lambda doc: doc.update(nodes=doc["nodes"] + 1),
         "error: invalid certificate: the replay visited 46 nodes, not 47"),
        (lambda doc: doc["or_choice"].pop(0),
         "error: invalid certificate: the replay closed a node at r.0.0"),
        (lambda doc: doc.update(nodes="many"),
         "error: malformed certificate: expected a node count, got 'many'"),
        (lambda doc: doc.update(root={}),
         "error: certificate holds a whole tableau tree, a format no longer "
         "read: regenerate it with `foml sat`"),
    ],
    ids=["nodes-too-low", "nodes-too-high", "dropped-pick", "malformed", "tree"],
)
def test_verify_rejects_a_bad_certificate_with_exit_3(runner, tmp_path, edit, message):
    """A malformed or invalid certificate exits 3 with one `error:` line;
    a replay that runs past the certificate's node count is invalid, not a
    resource limit, so it never exits 2."""
    path = write(tmp_path, "deep.foml", PHI1_TEXT)
    assert runner.invoke(main, ["sat", path]).exit_code == 0
    cert = tmp_path / "deep.foml.cert.json"
    doc = json.loads(cert.read_text())
    edit(doc)
    cert.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(cert)])
    assert result.exit_code == 3
    assert result.stderr == message + "\n"


def test_sat_unsat_exit_code(runner, tmp_path):
    path = write(tmp_path, "phi.foml", "P(x) & ~P(x)")
    result = runner.invoke(main, ["sat", path])
    assert result.exit_code == 1
    assert "UNSAT" in result.output


def test_sat_resource_exit_code(runner, tmp_path):
    path = write(tmp_path, "phi.foml", PHI1_TEXT)
    result = runner.invoke(main, ["sat", path, "--limits", "tableau=5"])
    assert result.exit_code == 2
    # The budget, the world where it fired and the work done by then.
    assert (
        "RESOURCE: tableau node budget exceeded at r.0.0 (work count 6)"
        in result.output
    )
    result = runner.invoke(
        main, ["sat", path, "--limits", "tableau=5", "--format", "json"]
    )
    assert result.exit_code == 2
    payload = json.loads(result.output)
    assert payload["exhausted_by"] == (
        "tableau node budget exceeded at r.0.0 (work count 6)"
    )
    result = runner.invoke(main, ["sat", path, "--limits", "forest=1"])
    assert result.exit_code == 2
    assert "RESOURCE: skolem-forest node budget exceeded at r.0 " in result.output


def test_model_rebuild_resource_exit_code(runner, tmp_path):
    # 100 nodes admit the 76-node flagship search and the 76-node first
    # rebuild, but not the 114-node second one.
    path = write(tmp_path, "phi.foml", PHI1_TEXT)
    result = runner.invoke(
        main, ["model", path, "--extensions", "2", "--limits", "tableau=100"]
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("resource limit: extension rebuild failed")
    assert result.stderr.count("tableau node budget exceeded") == 1
    # The rebuild names the extended world, then the world the budget hit.
    assert (
        "failed at r.0 leaf 'v3': tableau node budget exceeded at r.0.4.0 "
        "(work count 101)" in result.stderr
    )
    result = runner.invoke(main, ["model", path, "--limits", "tableau=5"])
    assert result.exit_code == 2
    assert result.output.startswith(
        "RESOURCE: tableau node budget exceeded at r.0.0 (work count 6)"
    )
    assert result.stderr == ""


def test_sat_rejects_bad_limits(runner, tmp_path):
    path = write(tmp_path, "phi.foml", SIMPLE_TEXT)
    for limits in [
        "bogus=7", "tableau=0", "forest=\u00b2", "depth=3", "choices=5",
        "tableau=5,tableau=7",
    ]:
        result = runner.invoke(main, ["sat", path, "--limits", limits])
        assert result.exit_code == 3, limits
        assert "error:" in result.stderr


def test_model_rejects_negative_extensions(runner, tmp_path):
    path = write(tmp_path, "phi.foml", SIMPLE_TEXT)
    result = runner.invoke(main, ["model", path, "--extensions", "-1"])
    assert result.exit_code == 3
    assert "error:" in result.stderr


def write_model(tmp_path, name, **fields):
    """A one-world model document with the given fields replaced."""
    doc = {
        "worlds": ["r"], "edges": [], "domain": ["a"],
        "delta": {"r": ["a"]}, "valuation": {"r": []},
    }
    return write(tmp_path, name, json.dumps({**doc, **fields}))


@pytest.mark.parametrize(
    "args",
    [
        ["sat", "{dir}/missing.foml"],
        ["--bogus"],
        ["sat", "{simple}", "--extensions", "x"],
        ["oracle", "{simple}", "--max-worlds", "0"],
        ["difftest", "--max-worlds", "0", "--report", "{dir}/r.jsonl"],
        ["gen", "--max-depth", "0"],
        ["gen", "--max-predicates", "0", "--max-arity", "0"],
        ["gen", "--count", "-2"],
        ["difftest", "-n", "-5", "--report", "{dir}/r.jsonl"],
        ["sat", "{reserved}"],
        ["check-model", "{delta_list}", "{simple}"],
        ["check-model", "{valuation_list}", "{simple}"],
        ["check-model", "{number_world}", "{simple}"],
        ["verify", "{dir}/missing.cert.json"],
        ["verify", "{simple}"],
        ["check-model", "{two_elements}", "{simple}", "--assign", "=a"],
        ["check-model", "{two_elements}", "{simple}", "--assign", "x=a,x=b"],
    ],
    ids=[
        "missing-file", "unknown-option", "option-of-another-command",
        "oracle-zero-worlds", "difftest-zero-worlds", "gen-zero-depth",
        "gen-no-predicates", "gen-negative-count", "difftest-negative-count",
        "free-variable-with-separator",
        "model-delta-is-a-list", "model-valuation-is-a-list",
        "model-world-is-a-number", "verify-missing-file",
        "verify-not-json", "assign-empty-name", "assign-a-name-twice",
    ],
)
def test_bad_input_exits_3_with_one_error_line(runner, tmp_path, args):
    paths = {
        "dir": str(tmp_path),
        "simple": write(tmp_path, "simple.foml", SIMPLE_TEXT),
        "reserved": write(tmp_path, "reserved.foml", "P(a@v0) & <> Q(a@v0)"),
        "delta_list": write_model(tmp_path, "delta.json", delta=[]),
        "valuation_list": write_model(tmp_path, "valuation.json", valuation=[]),
        "number_world": write_model(
            tmp_path, "number.json", worlds=["r", 1], edges=[["r", 1], ["r", "s"]]
        ),
        "two_elements": write_model(
            tmp_path, "two.json", domain=["a", "b"], delta={"r": ["a", "b"]}
        ),
    }
    result = runner.invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == 3, result.exception
    assert result.stderr.startswith("error:")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "args, raised, code, tail",
    [
        (["sat", "{simple}", "--certificate", "{dir}/no/c.json"], None, 3, None),
        (["difftest", "-n", "2", "--report", "{dir}/no/r.jsonl"], None, 3, None),
        (["sat", "{latin1}"], None, 3, None),
        (["sat", "{simple}"], KeyboardInterrupt, 130, "Aborted!\n"),
        (["sat", "{simple}"], RuntimeError("boom"), 3, "error: internal error\n"),
    ],
    ids=["unwritable-certificate", "unwritable-report", "not-utf8", "interrupt", "crash"],
)
def test_every_failure_has_its_exit_code(
    runner, tmp_path, monkeypatch, args, raised, code, tail
):
    paths = {
        "dir": str(tmp_path),
        "simple": write(tmp_path, "simple.foml", SIMPLE_TEXT),
        "latin1": str(tmp_path / "latin1.foml"),
    }
    (tmp_path / "latin1.foml").write_bytes("<> P(\u00e9)".encode("latin-1"))
    if raised is not None:

        def fail(*_args, **_kwargs):
            raise raised

        monkeypatch.setattr("foml.cli.search", fail)
    result = runner.invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == code, result.exception
    if tail is None:
        assert result.stderr.startswith("error:")
        assert result.stderr.count("\n") == 1
    else:
        assert result.stderr.endswith(tail)


def test_parse_error_exit_code(runner, tmp_path):
    path = write(tmp_path, "phi.foml", "P(x")
    result = runner.invoke(main, ["sat", path])
    assert result.exit_code == 3
    assert "error:" in result.stderr


def test_fragment_error_exit_code(runner, tmp_path):
    path = write(tmp_path, "phi.foml", "forall x. P(x)")
    result = runner.invoke(main, ["sat", path])
    assert result.exit_code == 3


def test_model_writes_model_and_trace(runner, tmp_path):
    path = write(tmp_path, "phi.foml", SIMPLE_TEXT)
    result = runner.invoke(main, ["model", path])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "Satisfied"
    m = model_from_json((tmp_path / "phi.foml.model.json").read_text())
    assert validate_model(m) == []
    lines = (tmp_path / "phi.foml.trace.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["type"] == "snapshot"


def test_model_extensions_on_flagship(runner, tmp_path):
    path = write(tmp_path, "phi.foml", PHI1_TEXT)
    result = runner.invoke(main, ["model", path, "--extensions", "2"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "ResidualViolations"
    m = model_from_json((tmp_path / "phi.foml.model.json").read_text())
    assert len(m.worlds) == 57


def test_model_seven_rounds_fit_the_default_limits(runner, tmp_path):
    # Round 7 is the first that used to exhaust the 200,000-node budget.
    path = write(tmp_path, "phi.foml", PHI1_TEXT)
    result = runner.invoke(main, ["model", path, "--extensions", "7"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "ResidualViolations"


def test_model_unsat_exit_code(runner, tmp_path):
    path = write(tmp_path, "phi.foml", "P(x) & ~P(x)")
    result = runner.invoke(main, ["model", path])
    assert result.exit_code == 1
    assert "UNSAT" in result.output
    assert result.stderr == ""


def test_model_json_reports_every_outcome(runner, tmp_path):
    """`foml model --format json` prints one JSON line on UNSAT and on
    EXHAUSTED too, with `foml sat`'s keys, and keeps the exit codes."""
    unsat = write(tmp_path, "unsat.foml", "P(x) & ~P(x)")
    result = runner.invoke(main, ["model", unsat, "--format", "json"])
    assert result.exit_code == 1
    assert json.loads(result.output) == {
        "status": "unsat", "nodes_visited": 2, "exhausted_by": None,
    }
    deep = write(tmp_path, "deep.foml", PHI1_TEXT)
    result = runner.invoke(
        main, ["model", deep, "--limits", "tableau=5", "--format", "json"]
    )
    assert result.exit_code == 2
    assert json.loads(result.output) == {
        "status": "exhausted",
        "nodes_visited": 6,
        "exhausted_by": "tableau node budget exceeded at r.0.0 (work count 6)",
    }
    assert result.stderr == ""


def test_check_model_round_trip(runner, tmp_path):
    phi_path = write(tmp_path, "phi.foml", SIMPLE_TEXT)
    assert runner.invoke(main, ["model", phi_path]).exit_code == 0
    model_path = str(tmp_path / "phi.foml.model.json")

    good = runner.invoke(main, ["check-model", model_path, phi_path])
    assert good.exit_code == 0 and good.output.strip() == "true"

    probe = write(tmp_path, "probe.foml", "exists y. [] P(v0,y)")
    hit = runner.invoke(main, ["check-model", model_path, probe, "--world", "r.0"])
    assert hit.exit_code == 0 and hit.output.strip() == "true"

    fact = write(tmp_path, "fact.foml", "P(x,x)")
    miss = runner.invoke(
        main, ["check-model", model_path, fact, "--world", "r.0", "--assign", "x=v0"]
    )
    assert miss.exit_code == 1 and miss.output.strip() == "false"


def test_model_file_is_one_line_and_check_model_reads_it_indented(runner, tmp_path):
    """`foml model` writes one line of canonical JSON; `check-model` reads
    that file and the same document indented alike."""
    phi_path = write(tmp_path, "phi.foml", PHI1_TEXT)
    assert runner.invoke(main, ["model", phi_path, "--extensions", "1"]).exit_code == 0
    text = (tmp_path / "phi.foml.model.json").read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    indented = write(tmp_path, "indented.json", json.dumps(json.loads(text), indent=2))
    probe = write(tmp_path, "probe.foml", "P(v0, v1)")
    for path in (str(tmp_path / "phi.foml.model.json"), indented):
        hit = runner.invoke(main, ["check-model", path, probe, "--world", "r.0.0.0"])
        assert (hit.exit_code, hit.output) == (0, "true\n")


def test_check_model_rejects_invalid_model(runner, tmp_path):
    bad = write(
        tmp_path,
        "bad.model.json",
        json.dumps(
            {
                "worlds": ["r", "s"],
                "edges": [["r", "s"]],
                "domain": ["a", "b"],
                "delta": {"r": ["a", "b"], "s": ["a"]},
                "valuation": {"r": [], "s": []},
            }
        ),
    )
    phi = write(tmp_path, "phi.foml", "P(a)")
    result = runner.invoke(main, ["check-model", bad, phi])
    assert result.exit_code == 3
    assert "invalid model" in result.stderr

    # Two violations still make one `error:` line.
    twice = write_model(
        tmp_path, "twice.model.json", delta={"r": []}, edges=[["r", "s"]]
    )
    result = runner.invoke(main, ["check-model", twice, phi])
    assert result.exit_code == 3
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid model:")
    assert "empty local domain" in lines[0] and "unknown world" in lines[0]


def test_check_model_unknown_world(runner, tmp_path):
    phi_path = write(tmp_path, "phi.foml", SIMPLE_TEXT)
    runner.invoke(main, ["model", phi_path])
    model_path = str(tmp_path / "phi.foml.model.json")
    result = runner.invoke(main, ["check-model", model_path, phi_path, "--world", "zz"])
    assert result.exit_code == 3


def test_classify_output(runner, tmp_path):
    path = write(tmp_path, "phi.foml", PHI1_TEXT)
    result = runner.invoke(main, ["classify", path])
    assert result.exit_code == 0
    assert result.output.startswith("EBBE (bundles:")

    plain = write(tmp_path, "plain.foml", "forall x. P(x)")
    result = runner.invoke(main, ["classify", plain])
    assert "NotBundled" in result.output


def test_classify_a_long_flat_conjunction(runner, tmp_path):
    """3000 conjuncts parse to a 3000-deep `&` chain, which every formula
    walk takes at any depth."""
    path = write(tmp_path, "flat.foml", " & ".join(f"P{i}" for i in range(3000)))
    result = runner.invoke(main, ["classify", path])
    assert result.exit_code == 0, result.stderr
    assert result.output == "EBBE (bundles: none)\n"


def test_oracle_found_and_none(runner, tmp_path):
    path = write(tmp_path, "phi.foml", SIMPLE_TEXT)
    found = runner.invoke(
        main, ["oracle", path, "--max-worlds", "2", "--max-domain", "1", "--depth", "2"]
    )
    assert found.exit_code == 0
    assert "model found; formula holds at w0" in found.output

    bad = write(tmp_path, "bad.foml", "P(x) & ~P(x)")
    none = runner.invoke(main, ["oracle", bad])
    assert none.exit_code == 1
    assert none.output.strip() == "none"


def test_oracle_finds_the_model_of_an_1100_literal_conjunction(runner, tmp_path):
    """The oracle grounds a chain of one connective in a loop and searches
    valuations on an explicit stack, so a conjunction nested 1,100 deep
    gets its model: one world where every literal holds."""
    text = " & ".join(f"P{i}" for i in range(1100))
    path = write(tmp_path, "conj.foml", text)
    result = runner.invoke(main, ["oracle", path, "--format", "json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    model = model_from_json(json.dumps(payload["model"]))
    assert sorted(model.worlds) == ["w0"] and payload["world"] == "w0"
    assert len(model.valuation) == 1100
    assert check(model, "w0", {}, norm(text))


def test_gen_is_deterministic(runner):
    a = runner.invoke(main, ["gen", "--seed", "5", "--count", "3"])
    b = runner.invoke(main, ["gen", "--seed", "5", "--count", "3"])
    assert a.exit_code == 0 and a.output == b.output
    lines = a.output.splitlines()
    assert lines[0] == "# seed 5"
    assert len(lines) == 4


def test_difftest_clean_run(runner, tmp_path):
    report_path = str(tmp_path / "report.jsonl")
    result = runner.invoke(
        main, ["difftest", "--seed", "3", "-n", "10", "--report", report_path]
    )
    assert result.exit_code == 0
    assert "10 formulas, 0 discrepancies, 0 problem records" in result.output
    lines = [json.loads(l) for l in open(report_path)]
    assert lines[0]["type"] == "header"
    assert sum(1 for l in lines if l["type"] == "record") == 10
    assert lines[-1]["ok"] is True
