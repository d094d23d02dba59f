"""Command-line front end: satisfiability, model building, model checking,
fragment classification, the brute-force oracle, and the test harness.

Exit codes: 0 sat/true/ok, 1 unsat/false/discrepancies, 2 resource ceiling,
3 parse, fragment, or invalid-model errors.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import os
import sys
from pathlib import Path

import click

from .extraction import iterate_extensions, trace_to_ndjson
from .formulas import (
    ArityError,
    FomlError,
    FragmentError,
    ResourceLimit,
    check_arities,
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
from .parser import ParseError, parse_formula, print_formula
from .tableau import (
    EXHAUSTED,
    SAT,
    SearchLimits,
    UNSAT,
    certificate_to_json,
    search,
)
from .testgen import GenConfig, differential_run, gen_formula, report_to_jsonl

log = logging.getLogger("foml")


@click.group()
def main():
    """Satisfiability tooling for the bundled fragment of first-order
    modal logic over increasing-domain models."""
    level = os.environ.get("FOML_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ResourceLimit as exc:
            click.echo(f"resource limit: {exc}", err=True)
            sys.exit(2)
        except (ParseError, FragmentError, ArityError, FomlError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


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
    fields = {
        "forest": "max_forest_nodes",
        "tableau": "max_tableau_nodes",
        "depth": "max_depth",
        "choices": "max_branch_choices",
    }
    values = {}
    for part in limits_text.split(","):
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in fields or not raw.strip().isdecimal():
            raise FomlError(
                f"bad --limits entry {part!r} (use forest=, tableau=, depth=, choices=)"
            )
        values[fields[key]] = int(raw)
    try:
        return dataclasses.replace(base, **values)
    except ValueError as exc:
        raise FomlError(f"bad --limits: {exc}") from exc


_format_opt = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text",
    help="Output format.",
)


@main.command()
@click.argument("formula_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--limits", "limits_text", default=None, help="Overrides, e.g. tableau=10000,choices=50000.")
@click.option("--certificate", "cert_path", default=None, help="Certificate output path (default: FORMULA_FILE.cert.json).")
@_format_opt
@_guard
def sat(formula_file, limits_text, cert_path, fmt):
    """Decide satisfiability; write a certificate when satisfiable."""
    theta = _load_formula(formula_file)
    limits = _limits_for(theta, limits_text)
    result = search(theta, limits)
    out = cert_path or formula_file + ".cert.json"
    if result.status == SAT:
        Path(out).write_text(certificate_to_json(result.tableau), encoding="utf-8")
    payload = {
        "status": result.status,
        "certificate": out if result.status == SAT else None,
        "nodes_visited": result.stats.nodes,
    }
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(result.status.upper() if result.status != EXHAUSTED else "RESOURCE")
        if result.status == SAT:
            click.echo(f"certificate written to {out}")
    sys.exit({SAT: 0, UNSAT: 1, EXHAUSTED: 2}[result.status])


@main.command()
@click.argument("formula_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--extensions", "k", type=int, default=0, help="Extension rounds to run.")
@click.option("--limits", "limits_text", default=None)
@click.option("--output", "model_path", default=None, help="Model output path (default: FORMULA_FILE.model.json).")
@click.option("--trace", "trace_path", default=None, help="Trace output path (default: FORMULA_FILE.trace.jsonl).")
@_format_opt
@_guard
def model(formula_file, k, limits_text, model_path, trace_path, fmt):
    """Build a model from the tableau, growing it k times."""
    if k < 0:
        raise FomlError("--extensions must be non-negative")
    theta = _load_formula(formula_file)
    limits = _limits_for(theta, limits_text)
    result = search(theta, limits)
    if result.status == UNSAT:
        click.echo("UNSAT: no model to extract", err=True)
        sys.exit(1)
    if result.status == EXHAUSTED:
        click.echo("RESOURCE: search hit its limits", err=True)
        sys.exit(2)
    final, trace, status = iterate_extensions(theta, result.tableau, k, limits)
    model_out = model_path or formula_file + ".model.json"
    trace_out = trace_path or formula_file + ".trace.jsonl"
    Path(model_out).write_text(model_to_json(final), encoding="utf-8")
    Path(trace_out).write_text(trace_to_ndjson(trace), encoding="utf-8")
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "status": status,
                    "model_file": model_out,
                    "trace_file": trace_out,
                    "worlds": len(final.worlds),
                    "domain": len(final.domain),
                    "extensions_run": len(trace.steps),
                },
                sort_keys=True,
            )
        )
    else:
        click.echo(status)
        click.echo(f"model written to {model_out}")
        click.echo(f"trace written to {trace_out}")
    sys.exit(0)


@main.command("check-model")
@click.argument("model_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("formula_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--world", default="r", help="World to evaluate at.")
@click.option("--assign", "assign_text", default=None, help="Bindings, e.g. x=a,y=b.")
@_format_opt
@_guard
def check_model(model_file, formula_file, world, assign_text, fmt):
    """Evaluate a formula in a model file at a world."""
    m = model_from_json(Path(model_file).read_text(encoding="utf-8"))
    violations = validate_model(m)
    if violations:
        for v in violations:
            click.echo(f"invalid model: {v}", err=True)
        sys.exit(3)
    phi = _load_formula(formula_file, normalize=False)
    check_arities(phi)
    if world not in m.worlds:
        raise FomlError(f"world {world!r} is not in the model")
    sigma = {v: v for v in free_vars(phi)}
    if assign_text:
        for part in assign_text.split(","):
            var, _, elem = part.partition("=")
            if not elem:
                raise FomlError(f"bad --assign entry {part!r}")
            sigma[var.strip()] = elem.strip()
    verdict = check(m, world, sigma, phi)
    if fmt == "json":
        click.echo(json.dumps({"result": verdict}))
    else:
        click.echo("true" if verdict else "false")
    sys.exit(0 if verdict else 1)


@main.command()
@click.argument("formula_file", type=click.Path(exists=True, dir_okay=False))
@_format_opt
@_guard
def classify(formula_file, fmt):
    """Report which bundled-fragment class a formula falls in."""
    phi = _load_formula(formula_file, normalize=False)
    fragment = classify_fragment(phi)
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "category": fragment.category,
                    "bundles": sorted(fragment.bundles_present),
                },
                sort_keys=True,
            )
        )
    else:
        bundles = ", ".join(sorted(fragment.bundles_present)) or "none"
        click.echo(f"{fragment.category} (bundles: {bundles})")
    sys.exit(0)


@main.command()
@click.argument("formula_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--max-worlds", default=3, show_default=True)
@click.option("--max-domain", default=2, show_default=True)
@click.option("--depth", default=3, show_default=True)
@_format_opt
@_guard
def oracle(formula_file, max_worlds, max_domain, depth, fmt):
    """Brute-force search for a small tree model."""
    phi = _load_formula(formula_file)
    found = bounded_model_search(phi, max_worlds, max_domain, depth)
    if found is None:
        if fmt == "json":
            click.echo(json.dumps({"status": "none"}))
        else:
            click.echo("none")
        sys.exit(1)
    m, world, sigma = found
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "status": "sat",
                    "world": world,
                    "assignment": sigma,
                    "model": model_to_json_dict(m),
                },
                sort_keys=True,
            )
        )
    else:
        click.echo(f"model found; formula holds at {world} under {sigma}")
        click.echo(model_to_json(m), nl=False)
    sys.exit(0)


@main.command()
@click.option("--seed", default=0, show_default=True)
@click.option("--count", default=1, show_default=True)
@click.option("--max-depth", default=4, show_default=True)
@click.option("--max-predicates", default=3, show_default=True)
@click.option("--max-arity", default=2, show_default=True)
@_format_opt
@_guard
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
    if fmt == "json":
        click.echo(json.dumps({"seed": seed, "formulas": formulas}, sort_keys=True))
    else:
        click.echo(f"# seed {seed}")
        for f in formulas:
            click.echo(f)
    sys.exit(0)


@main.command()
@click.option("--seed", default=0, show_default=True)
@click.option("-n", "--count", "count", default=300, show_default=True)
@click.option("--max-worlds", default=3, show_default=True)
@click.option("--max-domain", default=2, show_default=True)
@click.option("--depth", default=3, show_default=True)
@click.option("--report", "report_path", default="difftest.jsonl", show_default=True)
@_format_opt
@_guard
def difftest(seed, count, max_worlds, max_domain, depth, report_path, fmt):
    """Run the tableau against the oracle on a random corpus."""
    cfg = GenConfig(seed=seed)
    report = differential_run(cfg, count, (max_worlds, max_domain, depth))
    Path(report_path).write_text(report_to_jsonl(report), encoding="utf-8")
    clean = report["discrepancies"] == 0 and report["problem_records"] == 0
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "seed": seed,
                    "n": count,
                    "discrepancies": report["discrepancies"],
                    "problem_records": report["problem_records"],
                    "report": report_path,
                },
                sort_keys=True,
            )
        )
    else:
        click.echo(f"# seed {seed}")
        click.echo(
            f"{count} formulas, {report['discrepancies']} discrepancies, "
            f"{report['problem_records']} problem records; "
            f"report written to {report_path}"
        )
    sys.exit(0 if clean else 1)
