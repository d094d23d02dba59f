"""Command-line front end: satisfiability, model building, model checking,
fragment classification, the brute-force oracle, and the test harness.

Every command builds a payload and its text lines and hands both to
`_report`, which prints one JSON line with sorted keys under `--format
json`, the lines otherwise, and exits. `foml verify` checks a certificate
with `extraction.audit`, the check `foml difftest` applies to each SAT
verdict: the verifier, then the semantic gate on the model read off the
tree, leaf violations or not.

Exit codes: 0 sat/true/ok/valid, 1 unsat/false/discrepancies/none, 2
resource limit, 3 every other error: usage (click's own usage errors
included), parse, fragment, invalid model, a malformed or invalid
certificate, input nested too deeply to process, a file that cannot be read
or written, input that is not UTF-8, or an internal error; 130 when
interrupted. Input is too deep only for what still recurses: `kripke.check`
on nested quantifiers and modalities, and `foml oracle` where Or-like nodes
(`|`, `exists`, `<>`) and And-like ones nest in turn. The parser, the
search, forest enumeration and `print_formula` take any depth, and
`kripke.check` walks a chain of one connective in a loop, so `foml sat`
writes, and `foml verify` accepts, the certificate of a 1,500-literal
conjunction. Errors print one `error:` line on stderr, through
`_Main.main`, after the traceback for an internal error; `--limits` takes
`forest=` and `tableau=` budgets.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import sys
import traceback
from pathlib import Path
from typing import NoReturn

import click

from .extraction import audit, iterate_extensions, trace_to_ndjson
from .formulas import (
    FomlError,
    ResourceLimit,
    classify_fragment,
    clean_rename,
    free_vars,
    to_nnf,
)
from .kripke import (
    bounded_model_search,
    check,
    model_from_json,
    model_to_json,
    model_to_json_dict,
    validate_model,
)
from .parser import parse_formula, print_formula
from .tableau import (
    EXHAUSTED,
    SAT,
    SearchLimits,
    UNSAT,
    certificate_from_json,
    certificate_to_json,
    search,
)
from .testgen import GenConfig, differential_run, gen_formula, report_to_jsonl


class _Main(click.Group):
    """The one place an exception becomes an exit code. Click exits 2 on a
    usage error, which here is the resource-limit code: exit 3 instead."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.ClickException as exc:
            click.echo(f"error: {exc.format_message()}", err=True)
            sys.exit(3)
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(130)
        except ResourceLimit as exc:
            click.echo(f"resource limit: {exc}", err=True)
            sys.exit(2)
        except (FomlError, OSError, UnicodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except RecursionError:
            click.echo("error: input nested too deeply to process", err=True)
            sys.exit(3)
        except Exception:
            traceback.print_exc()
            click.echo("error: internal error", err=True)
            sys.exit(3)


@click.group(cls=_Main, no_args_is_help=False)
def main():
    """Satisfiability tooling for the bundled fragment of first-order
    modal logic over increasing-domain models."""
    level = os.environ.get("FOML_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _load_formula(path: str, normalize: bool = True):
    text = Path(path).read_text(encoding="utf-8")
    phi = parse_formula(text)
    if normalize:
        phi = clean_rename(to_nnf(phi))
    return phi


def _limits_for(theta, limits_text: str | None) -> SearchLimits:
    base = SearchLimits.derive(theta)
    if not limits_text:
        return base
    fields = {"forest": "max_forest_nodes", "tableau": "max_tableau_nodes"}
    values = {}
    for part in limits_text.split(","):
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in fields or not raw.strip().isdecimal() or fields[key] in values:
            raise FomlError(
                f"bad --limits entry {part!r} (use forest=, tableau=, each once)"
            )
        values[fields[key]] = int(raw)
    try:
        return dataclasses.replace(base, **values)
    except ValueError as exc:
        raise FomlError(f"bad --limits: {exc}") from exc


def _report(fmt: str, payload: dict, lines: list[str], code: int = 0) -> NoReturn:
    """Print the payload as one JSON line with sorted keys, or the text
    lines, on stdout; then exit with code."""
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            click.echo(line)
    sys.exit(code)


_EXIT = {SAT: 0, UNSAT: 1, EXHAUSTED: 2}


def _search_payload(result) -> dict:
    """What `sat` and `model` report of a search."""
    return {
        "status": result.status,
        "nodes_visited": result.stats.nodes,
        "exhausted_by": result.stats.exhausted_by,
    }


_format_opt = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text",
    help="Output format.",
)


@main.command()
@click.argument("formula_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--limits", "limits_text", default=None, help="Budget overrides, e.g. tableau=10000,forest=128.")
@click.option("--certificate", "cert_path", default=None, help="Certificate output path (default: FORMULA_FILE.cert.json).")
@_format_opt
def sat(formula_file, limits_text, cert_path, fmt):
    """Decide satisfiability; write a certificate when satisfiable."""
    theta = _load_formula(formula_file)
    limits = _limits_for(theta, limits_text)
    result = search(theta, limits)
    out = cert_path or formula_file + ".cert.json"
    payload = {**_search_payload(result), "certificate": None}
    if result.status == EXHAUSTED:
        lines = [f"RESOURCE: {result.stats.exhausted_by}"]
    else:
        lines = [result.status.upper()]
    if result.status == SAT:
        Path(out).write_text(certificate_to_json(result.tableau), encoding="utf-8")
        payload["certificate"] = out
        lines.append(f"certificate written to {out}")
    _report(fmt, payload, lines, _EXIT[result.status])


@main.command()
@click.argument("cert_file", type=click.Path(exists=True, dir_okay=False))
@_format_opt
def verify(cert_file, fmt):
    """Re-check a certificate: rebuild its tableau from its choices, then
    audit the tree and the model read off it."""
    tableau = certificate_from_json(Path(cert_file).read_text(encoding="utf-8"))
    (theta,) = tableau.gamma
    _, violations, problems = audit(tableau, theta)
    if problems:
        raise FomlError("invalid certificate: " + "; ".join(problems))
    left = len(violations)
    if left:
        line = f"{left} leaf violation{'s' * (left > 1)} left in the model"
    else:
        line = "the model satisfies theta at its root"
    _report(fmt, {"status": "valid", "leaf_violations": left}, ["VALID", line])


@main.command()
@click.argument("formula_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--extensions", "k", type=click.IntRange(min=0), default=0, help="Extension rounds to run.")
@click.option("--limits", "limits_text", default=None)
@click.option("--output", "model_path", default=None, help="Model output path (default: FORMULA_FILE.model.json).")
@click.option("--trace", "trace_path", default=None, help="Trace output path (default: FORMULA_FILE.trace.jsonl).")
@_format_opt
def model(formula_file, k, limits_text, model_path, trace_path, fmt):
    """Build a model from the tableau, growing it k times."""
    theta = _load_formula(formula_file)
    limits = _limits_for(theta, limits_text)
    result = search(theta, limits)
    if result.status == UNSAT:
        _report(fmt, _search_payload(result), ["UNSAT: no model to extract"], 1)
    if result.status == EXHAUSTED:
        line = f"RESOURCE: {result.stats.exhausted_by}"
        _report(fmt, _search_payload(result), [line], 2)
    final, trace, status = iterate_extensions(theta, result.tableau, k, limits)
    model_out = model_path or formula_file + ".model.json"
    trace_out = trace_path or formula_file + ".trace.jsonl"
    Path(model_out).write_text(model_to_json(final), encoding="utf-8")
    Path(trace_out).write_text(trace_to_ndjson(trace), encoding="utf-8")
    payload = {
        "status": status,
        "model_file": model_out,
        "trace_file": trace_out,
        "worlds": len(final.worlds),
        "domain": len(final.domain),
        "extensions_run": len(trace.steps),
    }
    lines = [status, f"model written to {model_out}", f"trace written to {trace_out}"]
    _report(fmt, payload, lines)


@main.command("check-model")
@click.argument("model_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("formula_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--world", default="r", help="World to evaluate at.")
@click.option("--assign", "assign_text", default=None, help="Bindings, e.g. x=a,y=b.")
@_format_opt
def check_model(model_file, formula_file, world, assign_text, fmt):
    """Evaluate a formula in a model file at a world."""
    m = model_from_json(Path(model_file).read_text(encoding="utf-8"))
    violations = validate_model(m)
    if violations:
        raise FomlError("invalid model: " + "; ".join(violations))
    phi = _load_formula(formula_file, normalize=False)
    if world not in m.worlds:
        raise FomlError(f"world {world!r} is not in the model")
    assigned = {}
    for part in assign_text.split(",") if assign_text else ():
        var, _, elem = (t.strip() for t in part.partition("="))
        if not var or not elem or var in assigned:
            raise FomlError(
                f"bad --assign entry {part!r} (use name=element, each name once)"
            )
        assigned[var] = elem
    sigma = {**{v: v for v in free_vars(phi)}, **assigned}
    verdict = check(m, world, sigma, phi)
    _report(fmt, {"result": verdict}, ["true" if verdict else "false"], 0 if verdict else 1)


@main.command()
@click.argument("formula_file", type=click.Path(exists=True, dir_okay=False))
@_format_opt
def classify(formula_file, fmt):
    """Report which bundled-fragment class a formula falls in."""
    phi = _load_formula(formula_file, normalize=False)
    fragment = classify_fragment(phi)
    bundles = sorted(fragment.bundles_present)
    line = f"{fragment.category} (bundles: {', '.join(bundles) or 'none'})"
    _report(fmt, {"category": fragment.category, "bundles": bundles}, [line])


@main.command()
@click.argument("formula_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--max-worlds", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--max-domain", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--depth", type=click.IntRange(min=1), default=3, show_default=True)
@_format_opt
def oracle(formula_file, max_worlds, max_domain, depth, fmt):
    """Brute-force search for a small tree model."""
    phi = _load_formula(formula_file)
    found = bounded_model_search(phi, max_worlds, max_domain, depth)
    if found is None:
        _report(fmt, {"status": "none"}, ["none"], 1)
    m, world, sigma = found
    payload = {
        "status": "sat",
        "world": world,
        "assignment": sigma,
        "model": model_to_json_dict(m),
    }
    lines = [
        f"model found; formula holds at {world} under {sigma}",
        model_to_json(m).rstrip("\n"),
    ]
    _report(fmt, payload, lines)


@main.command()
@click.option("--seed", default=0, show_default=True)
@click.option("--count", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--max-depth", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--max-predicates", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--max-arity", type=click.IntRange(min=0), default=2, show_default=True)
@_format_opt
def gen(seed, count, max_depth, max_predicates, max_arity, fmt):
    """Print random formulas from the bundled fragment."""
    import random

    cfg = GenConfig(
        max_depth=max_depth,
        max_predicates=max_predicates,
        max_arity=max_arity,
        seed=seed,
    )
    rng = random.Random(seed)
    formulas = [print_formula(gen_formula(cfg, rng)) for _ in range(count)]
    _report(fmt, {"seed": seed, "formulas": formulas}, [f"# seed {seed}", *formulas])


@main.command()
@click.option("--seed", default=0, show_default=True)
@click.option("-n", "--count", "count", type=click.IntRange(min=0), default=300, show_default=True)
@click.option("--max-worlds", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--max-domain", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--depth", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--report", "report_path", default="difftest.jsonl", show_default=True)
@_format_opt
def difftest(seed, count, max_worlds, max_domain, depth, report_path, fmt):
    """Run the tableau against the oracle on a random corpus."""
    cfg = GenConfig(seed=seed)
    report = differential_run(cfg, count, (max_worlds, max_domain, depth))
    Path(report_path).write_text(report_to_jsonl(report), encoding="utf-8")
    clean = report["discrepancies"] == 0 and report["problem_records"] == 0
    payload = {
        "seed": seed,
        "n": count,
        "discrepancies": report["discrepancies"],
        "problem_records": report["problem_records"],
        "report": report_path,
    }
    summary = (
        f"{count} formulas, {report['discrepancies']} discrepancies, "
        f"{report['problem_records']} problem records; "
        f"report written to {report_path}"
    )
    _report(fmt, payload, [f"# seed {seed}", summary], 0 if clean else 1)
