"""The benchmark workloads.

Each workload builds its inputs as text during set-up, then runs passes. A
pass calls the public functions that `foml sat`, `foml model --extensions K`
and `foml difftest` call, in the same order and in process, keeps the
certificate, model and trace text in memory, and checks every output.

A pass records, per op, the time of each step it took:
- `decide`: text -> parse -> normalize -> `search`
- `write`: `certificate_to_json`
- `read`: `certificate_from_json`
- `verify`: `verify_tableau`
- `model`: `extract_model`, `validate_model`, `find_leaf_violations` and the
  root check
- `oracle`: `bounded_model_search`

An op is a formula, an extension round or a width instance. It fails on an
exception, an unexpected EXHAUSTED, a verifier or validator complaint, a
failed root check where no leaf violation remains, an oracle model the
tableau missed, or a non-monotone snapshot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

# The README's deep.foml: satisfiable, but only in infinite models, so every
# extension round moves the defect one element further along a chain.
FLAGSHIP_TEXT = (
    "<> forall x . (exists y . [][] P(x,y)) & [][] ~P(x,x)"
    " & <> forall w . ((<>P(x,w) <-> []P(x,w))"
    " & <> forall z . (P(x,w) & P(w,z) -> P(x,z)))"
)
# Extension rounds per flagship pass. Rounds 4, 5 and 6 alone take about
# 0.8, 2.4 and 8 s; passes that long are too few per run to get past the
# host's multi-second speed swings, and the best of them does not settle.
ROUNDS = 3

# The acceptance-corpus seed: difftest's corpus is generated from it.
CORPUS_SEED = 2026
ORACLE_BOUNDS = (3, 2, 3)


@dataclass
class PassResult:
    attempted: int
    total: float = 0.0
    ops: dict = field(default_factory=dict)
    problems: dict = field(default_factory=dict)

    def fail(self, op, message: str) -> None:
        self.problems.setdefault(str(op), []).append(message)

    @property
    def failed(self) -> int:
        return len(self.problems)


def certified_verdict(foml, text: str, certificate: bool):
    """`foml sat` on one text, then the checks every SAT verdict gets.

    With `certificate`, the certificate is written and the checks run on the
    tableau read back from it. Returns (theta, search result, step times,
    problems, leaf violations).
    """
    steps = {}
    t0 = perf_counter()
    theta = foml.clean_rename(foml.to_nnf(foml.parse_formula(text)))
    res = foml.search(theta, foml.SearchLimits.derive(theta))
    t1 = perf_counter()
    steps["decide"] = t1 - t0
    if res.status != foml.SAT:
        return theta, res, steps, [], []
    tableau = res.tableau
    if certificate:
        cert = foml.certificate_to_json(tableau)
        t2 = perf_counter()
        tableau = foml.certificate_from_json(cert)
        t3 = perf_counter()
        steps["write"], steps["read"], t1 = t2 - t1, t3 - t2, t3
    problems = list(foml.verify_tableau(tableau, theta))
    t2 = perf_counter()
    model = foml.extract_model(tableau)
    problems += foml.validate_model(model)
    leftover = foml.find_leaf_violations(tableau, model)
    if not leftover:
        sigma = {v: v for v in foml.free_vars(theta)}
        if not foml.check(model, "r", sigma, theta):
            problems.append("no leaf violation remains but the root check fails")
    steps["verify"], steps["model"] = t2 - t1, perf_counter() - t2
    return theta, res, steps, problems, leftover


def monotone_problems(old, new) -> list[str]:
    """Later snapshots must extend earlier ones world by world."""
    out = []
    if not old.worlds <= new.worlds:
        out.append("worlds were lost")
    if not old.edges <= new.edges:
        out.append("edges were lost")
    for w in old.worlds & new.worlds:
        if not old.local_domain[w] <= new.local_domain[w]:
            out.append(f"local domain shrank at {w}")
    for key, tuples in old.valuation.items():
        if key[0] in new.worlds and not tuples <= new.valuation.get(key, frozenset()):
            out.append(f"facts lost for {key}")
    return out


class Flagship:
    """deep.foml: `foml sat`, then `foml model --extensions K` on its tableau.

    The input is fixed whatever the seed, so the node counts it pins stay a
    cross-check of the program being measured.
    """

    name = "flagship"

    def __init__(self, rounds: int = ROUNDS):
        self.rounds = rounds

    def build(self, foml, seed: int) -> list[str]:
        return [FLAGSHIP_TEXT]

    def run_pass(self, foml, inputs, tr) -> PassResult:
        out = PassResult(1 + self.rounds)
        tr.op = "initial"
        theta, res, steps, problems, leftover = certified_verdict(
            foml, inputs[0], certificate=True
        )
        if res.status != foml.SAT:
            out.fail("initial", f"verdict {res.status}, expected sat")
            for i in range(self.rounds):
                out.fail(f"r{i + 1}", "not run")
            return out
        out.ops["initial"] = steps
        if problems:
            out.fail("initial", "; ".join(problems))
        if not leftover:
            out.fail("initial", "expected a leaf violation at the chain end")

        tr.op = "extend"
        limits = foml.SearchLimits.derive(theta)
        try:
            final, trace, status = foml.iterate_extensions(
                theta, res.tableau, self.rounds, limits
            )
            foml.model_to_json(final)
            trace_text = foml.trace_to_ndjson(trace)
        except Exception as exc:  # every round counts as failed
            for i in range(self.rounds):
                out.fail(f"r{i + 1}", f"{type(exc).__name__}: {exc}")
            return out
        self._check_rounds(foml, out, trace, status, trace_text, leftover)
        return out

    def _check_rounds(self, foml, out, trace, status, trace_text, leftover):
        k = self.rounds
        if status != foml.RESIDUAL:
            out.fail(f"r{k}", f"status {status}, expected {foml.RESIDUAL}")
        if trace_text.count("\n") != 2 * k + 1:
            out.fail(f"r{k}", "trace text does not hold 2K+1 records")
        prev_leaf = leftover[0][1] if leftover else None
        for i in range(k):
            if i >= len(trace.steps) or i + 1 >= len(trace.snapshots):
                out.fail(f"r{i + 1}", "round missing from the trace")
                continue
            step = trace.steps[i]
            old, new = trace.snapshots[i], trace.snapshots[i + 1]
            bad = monotone_problems(old, new) + foml.validate_model(new)
            if len(step.fresh) != 1:
                bad.append(f"added {len(step.fresh)} fresh elements, expected 1")
            grown = len(new.local_domain.get(step.world, ())) - len(
                old.local_domain.get(step.world, ())
            )
            if grown != 1:
                bad.append(f"domain of {step.world} grew by {grown}, expected 1")
            if step.leaf != prev_leaf:
                bad.append(f"extended {step.leaf}, not the chain end {prev_leaf}")
            prev_leaf = step.fresh[0] if step.fresh else None
            if bad:
                out.fail(f"r{i + 1}", "; ".join(bad))


class Corpus:
    """The `foml difftest` path over the acceptance corpus (seed 2026).

    The corpus itself is fixed; the run seed only permutes the order in
    which formulas are run. Corpora generated from other seeds differ in
    their oracle tail by an order of magnitude (seed 2 at n=1000 holds a
    single 73 s oracle call), which no run-to-run bound could hold.
    """

    name = "corpus"

    def __init__(self, n: int = 1000):
        self.n = n

    def build(self, foml, seed: int) -> list[str]:
        cfg = foml.GenConfig(seed=CORPUS_SEED)
        rng = random.Random(CORPUS_SEED)
        texts = [foml.print_formula(foml.gen_formula(cfg, rng)) for _ in range(self.n)]
        random.Random(seed).shuffle(texts)
        return texts

    def run_pass(self, foml, texts, tr) -> PassResult:
        return self._loop(foml, texts, tr, oracle=True)

    def sweep(self, foml, texts, tr) -> PassResult:
        """The tableau side of every formula again, without the oracle.

        The oracle makes a pass take 14-18 s, so a run holds one; the
        sweeps give every formula's verdict steps enough samples to find
        the host's fast moments.
        """
        return self._loop(foml, texts, tr, oracle=False)

    def _loop(self, foml, texts, tr, oracle: bool) -> PassResult:
        out = PassResult(len(texts))
        for idx, text in enumerate(texts):
            tr.op = idx
            self.run_op(foml, text, idx, out, oracle)
        return out

    def run_op(self, foml, text, idx, out, oracle: bool = True) -> None:
        """One formula, with its failures recorded in `out`."""
        try:
            self._one(foml, text, idx, out, oracle)
        except Exception as exc:
            out.fail(idx, f"{type(exc).__name__}: {exc}")

    def _one(self, foml, text, idx, out, oracle: bool):
        theta, res, steps, problems, _ = certified_verdict(foml, text, certificate=False)
        if res.status == foml.EXHAUSTED:
            problems.append("unexpected EXHAUSTED")
        if oracle:
            t0 = perf_counter()
            try:
                found = foml.bounded_model_search(theta, *ORACLE_BOUNDS) is not None
            except foml.ResourceLimit:
                found = False  # inconclusive, contradicts no verdict
            steps["oracle"] = perf_counter() - t0
            if found and res.status != foml.SAT:
                problems.append(f"oracle found a model, tableau said {res.status}")
        out.ops[idx] = steps
        if problems:
            out.fail(idx, "; ".join(problems))


WORKLOADS = {"flagship": Flagship, "corpus": Corpus}
