"""Random formula generation inside the decidable bundle, plus the
differential harness that plays the tableau against the brute-force oracle.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Optional

from .extraction import audit
from .formulas import (
    And,
    Box,
    Diamond,
    EBBE,
    Exists,
    Forall,
    Formula,
    FomlError,
    Not,
    Or,
    Pred,
    ResourceLimit,
    classify_fragment,
    free_vars,
    is_clean,
    is_nnf,
)
from .kripke import bounded_model_search
from .parser import print_formula
from .tableau import SAT, certificate_from_json, certificate_to_json, search


_WEIGHTS = {
    "literal": 3.0,
    "and": 2.0,
    "or": 2.0,
    "box": 1.0,
    "diamond": 1.0,
    "exists-box": 2.0,
    "forall-diamond": 2.0,
    "box-exists": 2.0,
    "diamond-forall": 2.0,
}


@dataclass
class GenConfig:
    max_depth: int = 4
    max_predicates: int = 3
    max_arity: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


def gen_formula(cfg: GenConfig, rng: Optional[random.Random] = None) -> Formula:
    """One clean NNF formula inside the bundle, deterministic per seed."""
    if rng is None:
        rng = random.Random(cfg.seed)
    arities = {
        f"P{i}": rng.randint(0, cfg.max_arity) for i in range(cfg.max_predicates)
    }
    if cfg.max_arity >= 1 and all(a == 0 for a in arities.values()):
        arities["P0"] = 1
    pred_names = sorted(arities)
    binder_count = [0]
    scope = ["f0"]
    if rng.random() < 0.3:
        scope.append("f1")

    structural = [k for k in _WEIGHTS if k != "literal"]

    def literal(sc: list[str]) -> Formula:
        name = rng.choice(pred_names)
        args = tuple(rng.choice(sc) for _ in range(arities[name]))
        atom = Pred(name, args)
        return Not(atom) if rng.random() < 0.4 else atom

    def ensure_uses(body: Formula, var: str, sc: list[str]) -> Formula:
        if var in free_vars(body) or rng.random() >= 0.9:
            return body
        wide = [p for p in pred_names if arities[p] >= 1]
        if not wide:
            return body
        name = rng.choice(wide)
        args = [rng.choice(sc + [var]) for _ in range(arities[name])]
        args[rng.randrange(len(args))] = var
        return And(body, Pred(name, tuple(args)))

    def bind() -> str:
        name = f"b{binder_count[0]}"
        binder_count[0] += 1
        return name

    # A body directly under [] must not start with forall, and one directly
    # under <> must not start with exists; those pairings leave the bundle.
    no_forall_head = frozenset({"forall-diamond"})
    no_exists_head = frozenset({"exists-box"})

    def gen(depth: int, sc: list[str], ban: frozenset = frozenset()) -> Formula:
        if depth <= 1:
            return literal(sc)
        names = ["literal"] + [k for k in structural if k not in ban]
        pick = rng.choices(names, weights=[_WEIGHTS[n] for n in names])[0]
        if pick == "literal":
            return literal(sc)
        if pick == "and":
            return And(gen(depth - 1, sc), gen(depth - 1, sc))
        if pick == "or":
            return Or(gen(depth - 1, sc), gen(depth - 1, sc))
        if pick == "box":
            return Box(gen(depth - 1, sc, no_forall_head))
        if pick == "diamond":
            return Diamond(gen(depth - 1, sc, no_exists_head))
        x = bind()
        if pick == "exists-box":
            inner = ensure_uses(gen(depth - 1, sc + [x], no_forall_head), x, sc)
            return Exists(x, Box(inner))
        if pick == "forall-diamond":
            inner = ensure_uses(gen(depth - 1, sc + [x], no_exists_head), x, sc)
            return Forall(x, Diamond(inner))
        inner = ensure_uses(gen(depth - 1, sc + [x]), x, sc)
        if pick == "box-exists":
            return Box(Exists(x, inner))
        return Diamond(Forall(x, inner))

    phi = gen(cfg.max_depth, scope)
    assert is_nnf(phi) and is_clean(phi)
    assert classify_fragment(phi).category == EBBE
    return phi


def certificate_read_back_problems(tableau) -> list[str]:
    """Whether the tableau's certificate reads back to this very tree: the
    same (world, gamma, S, pick) at each step of the walk. Two choices
    that shared a key would make the replay build another tree."""
    try:
        loaded = certificate_from_json(certificate_to_json(tableau))
    except FomlError as exc:
        return [str(exc)]

    def states(t):
        return [(w, n.gamma, n.s, n.pick) for w, n in t.walk()]

    if states(loaded) != states(tableau):
        return ["the certificate reads back to another tree"]
    return []


def differential_run(
    cfg: GenConfig, n: int, oracle_bounds: tuple[int, int, int] = (3, 2, 3)
) -> dict:
    """Generate n formulas and cross-examine tableau verdicts vs the oracle.

    A record goes bad when the oracle finds a model the tableau missed, or
    a SAT tableau reads back from its certificate to another tree or fails
    `extraction.audit`, the check `foml verify` applies to a certificate.
    """
    rng = random.Random(cfg.seed)
    records = []
    discrepancies = 0
    problem_records = 0
    for i in range(n):
        phi = gen_formula(cfg, rng)
        rec = {"index": i, "formula": print_formula(phi)}
        problems = []

        t0 = time.perf_counter()
        res = search(phi)
        rec["tableau"] = res.status
        rec["tableau_ms"] = round((time.perf_counter() - t0) * 1000, 3)

        t0 = time.perf_counter()
        try:
            oracle = bounded_model_search(phi, *oracle_bounds)
            oracle_status = "sat" if oracle is not None else "none"
        except ResourceLimit:
            # Inconclusive: the oracle found no model before its budget ran
            # out, so neither completeness direction is contradicted.
            oracle_status = "resource"
        rec["oracle"] = oracle_status
        rec["oracle_ms"] = round((time.perf_counter() - t0) * 1000, 3)

        if oracle_status == "sat" and res.status != SAT:
            rec["discrepancy"] = (
                f"oracle found a model but tableau reported {res.status}"
            )
            discrepancies += 1
        else:
            rec["discrepancy"] = None
        if res.status == SAT:
            problems.extend(certificate_read_back_problems(res.tableau))
            problems.extend(audit(res.tableau, phi)[2])

        rec["problems"] = problems
        rec["ok"] = not problems and rec["discrepancy"] is None
        problem_records += bool(problems)
        records.append(rec)
    return {
        "seed": cfg.seed,
        "n": n,
        "oracle_bounds": list(oracle_bounds),
        "discrepancies": discrepancies,
        "problem_records": problem_records,
        "records": records,
    }


def report_to_jsonl(report: dict) -> str:
    lines = [
        json.dumps(
            {
                "type": "header",
                "seed": report["seed"],
                "n": report["n"],
                "oracle_bounds": report["oracle_bounds"],
            },
            sort_keys=True,
        )
    ]
    for rec in report["records"]:
        lines.append(json.dumps({"type": "record", **rec}, sort_keys=True))
    lines.append(
        json.dumps(
            {
                "type": "summary",
                "discrepancies": report["discrepancies"],
                "problem_records": report["problem_records"],
                "ok": report["discrepancies"] == 0
                and report["problem_records"] == 0,
            },
            sort_keys=True,
        )
    )
    return "\n".join(lines) + "\n"
