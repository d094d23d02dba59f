"""Formula nodes hash by identity, so a set of nodes iterates in an order
that follows memory addresses. No output may read that order: the pinned
outputs are computed in two processes whose allocation histories differ
before `import foml`, and must come out the same in both."""

import json
import os
import subprocess
import sys
from pathlib import Path

import foml

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
CORPUS_SIZE = 200

# Allocates a block of tuples of mixed sizes, which moves every address
# foml's objects get later; then prints the flagship's certificate and
# 5-round trace, as `data/regen_golden.py` writes them, and a digest of the
# verdict, `SearchStats` and certificate of each formula of a seed-2026
# corpus.
_RUN = """
import sys
block = [(i,) * (i % 12) for i in range(int(sys.argv[1]))]
import hashlib, json, random
from dataclasses import asdict
from conftest import PHI1_TEXT, norm
from foml.extraction import iterate_extensions, trace_to_ndjson
from foml.tableau import SAT, certificate_to_json, search
from foml.testgen import GenConfig, gen_formula

phi1 = norm(PHI1_TEXT)
tree = search(phi1).tableau
_, trace, _ = iterate_extensions(phi1, tree, 5)
corpus = hashlib.sha256()
rng, cfg = random.Random(2026), GenConfig(seed=2026)
for _ in range(int(sys.argv[2])):
    res = search(gen_formula(cfg, rng))
    corpus.update(repr((res.status, asdict(res.stats))).encode())
    if res.status == SAT:
        corpus.update(certificate_to_json(res.tableau).encode())
print(json.dumps({
    "certificate": certificate_to_json(tree),
    "trace": trace_to_ndjson(trace),
    "corpus": corpus.hexdigest(),
}))
"""


def test_pinned_outputs_do_not_depend_on_node_addresses():
    src = str(Path(foml.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(TESTS)])}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RUN, str(block), str(CORPUS_SIZE)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for block in (1_000, 12_345)
    ]
    runs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        runs.append(json.loads(out))
    for run in runs:
        assert run["certificate"].encode() == (DATA / "phi1_certificate.json").read_bytes()
        assert run["trace"].encode() == (DATA / "phi1_trace5.jsonl").read_bytes()
    assert runs[0]["corpus"] == runs[1]["corpus"]
