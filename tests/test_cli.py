import json

import pytest
from click.testing import CliRunner

from conftest import PHI1_TEXT
from foml.cli import main
from foml.kripke import model_from_json, validate_model
from foml.tableau import certificate_from_json, verify_tableau


SIMPLE_TEXT = "<> forall x. exists y. [] P(x,y)"


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


def test_sat_json_format(runner, tmp_path):
    path = write(tmp_path, "phi.foml", SIMPLE_TEXT)
    result = runner.invoke(main, ["sat", path, "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["status"] == "sat"
    assert payload["certificate"].endswith(".cert.json")


def test_sat_unsat_exit_code(runner, tmp_path):
    path = write(tmp_path, "phi.foml", "P(x) & ~P(x)")
    result = runner.invoke(main, ["sat", path])
    assert result.exit_code == 1
    assert "UNSAT" in result.output


def test_sat_resource_exit_code(runner, tmp_path):
    path = write(tmp_path, "phi.foml", PHI1_TEXT)
    result = runner.invoke(main, ["sat", path, "--limits", "tableau=5"])
    assert result.exit_code == 2
    assert "RESOURCE" in result.output


def test_model_rebuild_resource_exit_code(runner, tmp_path):
    # 300 nodes admit the 295-node flagship search but not its rebuild.
    path = write(tmp_path, "phi.foml", PHI1_TEXT)
    result = runner.invoke(
        main, ["model", path, "--extensions", "1", "--limits", "tableau=300"]
    )
    assert result.exit_code == 2
    assert "resource limit:" in result.stderr


def test_sat_rejects_bad_limits(runner, tmp_path):
    path = write(tmp_path, "phi.foml", SIMPLE_TEXT)
    for limits in ["bogus=7", "tableau=0", "depth=\u00b2"]:
        result = runner.invoke(main, ["sat", path, "--limits", limits])
        assert result.exit_code == 3, limits
        assert "error:" in result.stderr


def test_model_rejects_negative_extensions(runner, tmp_path):
    path = write(tmp_path, "phi.foml", SIMPLE_TEXT)
    result = runner.invoke(main, ["model", path, "--extensions", "-1"])
    assert result.exit_code == 3
    assert "error:" in result.stderr


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


def test_model_unsat_exit_code(runner, tmp_path):
    path = write(tmp_path, "phi.foml", "P(x) & ~P(x)")
    result = runner.invoke(main, ["model", path])
    assert result.exit_code == 1
    assert "UNSAT" in result.stderr


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
