"""Regenerate the pinned flagship data from the current code.

Writes, next to this script:
  phi1_certificate.json  the certificate of a plain `search` of the flagship:
                         theta, the node count and the choices behind the tree
  phi1_trace5.jsonl      the NDJSON trace of five flagship extension rounds
  oracle_pins.jsonl      the bounded oracle's result on two 300-formula corpora

Run from the repository root after a change that is meant to move them:

    PYTHONPATH=src python tests/data/regen_golden.py

and record in CHANGES.md why the bytes changed. The tests compare against
these files byte for byte and never run this script; CI runs it and fails
when the files it writes differ from the checked-in ones.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import PHI1_TEXT, norm, oracle_pins_text  # noqa: E402
from foml.extraction import iterate_extensions, trace_to_ndjson  # noqa: E402
from foml.tableau import SAT, certificate_to_json, search  # noqa: E402

ROUNDS = 5


def main() -> None:
    phi1 = norm(PHI1_TEXT)
    result = search(phi1)
    if result.status != SAT:
        sys.exit(f"flagship search returned {result.status}")
    _, trace, _ = iterate_extensions(phi1, result.tableau, ROUNDS)
    outputs = {
        "phi1_certificate.json": certificate_to_json(result.tableau),
        f"phi1_trace{ROUNDS}.jsonl": trace_to_ndjson(trace),
        "oracle_pins.jsonl": oracle_pins_text(),
    }
    for name, text in outputs.items():
        (HERE / name).write_text(text, encoding="utf-8")
        print(f"wrote {name} ({len(text.encode())} bytes)")


if __name__ == "__main__":
    main()
