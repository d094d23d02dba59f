"""The README's command-line transcripts, replayed against `python -m foml`.

A transcript is a `sh` block of `$ command` lines, each followed by the
output it shows. The commands run in order in one temporary directory. A
`cat` of a file that does not exist yet writes the file from the lines it
shows. Every shown line must match; a last shown line of `...` elides the
rest of that command's output. A `#` comment on a command line is not part
of the command.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

# The exit code each first output line implies, after the README's table;
# any other first line means exit 0.
EXIT_CODES = {"UNSAT": 1, "false": 1, "none": 1}


def transcripts() -> dict[str, list[tuple[list[str], list[str]]]]:
    """Each transcript as (argv, shown output lines) pairs, named by the
    file its first command shows."""
    out = {}
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        if not block.startswith("$ "):
            continue
        steps = []
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            while shown and not shown[-1]:
                shown.pop()
            steps.append((shlex.split(command, comments=True), shown))
        out[steps[0][0][-1]] = steps
    return out


TRANSCRIPTS = transcripts()


def test_the_readme_shows_both_transcripts():
    assert sorted(TRANSCRIPTS) == ["deep.foml", "demo.foml"]


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_readme_transcript_replays(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv, shown in TRANSCRIPTS[name]:
        if argv[0] == "cat" and not (tmp_path / argv[1]).exists():
            (tmp_path / argv[1]).write_text("\n".join(shown) + "\n", encoding="utf-8")
        if argv[0] == "foml":
            argv = [sys.executable, "-m", "foml", *argv[1:]]
        run = subprocess.run(
            argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        lines = run.stdout.splitlines()
        if shown and shown[-1] == "...":
            shown = shown[:-1]
            lines = lines[: len(shown)]
        assert lines == shown, (argv, run.stderr)
        first = shown[0] if shown else ""
        assert run.returncode == EXIT_CODES.get(first, 0), (argv, run.stderr)
