"""README's CLI examples print what README shows.

Each ``$ crawlcount ...`` block is run through the CLI's ``main`` in a
scratch directory holding README's bowtie file, and its stdout must match
the block's output lines exactly.
"""

import re
import shlex
from pathlib import Path

import pytest

from crawlcount.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```\n(.*?)^```$", README, flags=re.M | re.S)


def example(subcommand: str) -> tuple[list[str], str]:
    """The argv and the expected stdout of README's example for ``subcommand``."""
    for block in BLOCKS:
        if not block.startswith(f"$ crawlcount {subcommand} "):
            continue
        lines = block.splitlines(keepends=True)
        command = lines.pop(0)[2:].rstrip()
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0).rstrip()
        return shlex.split(command)[1:], "".join(lines)
    raise AssertionError(f"README has no example of {subcommand}")


@pytest.fixture
def in_bowtie_dir(tmp_path, monkeypatch):
    (bowtie,) = [b for b in BLOCKS if b.startswith("# n=5\n")]
    (tmp_path / "bowtie.txt").write_text(bowtie, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize(
    "subcommand", ["exact", "validate", "estimate", "experiment", "edgecount"]
)
def test_example_output_matches(subcommand, in_bowtie_dir, capsys):
    argv, want = example(subcommand)
    assert main(argv) == 0
    assert capsys.readouterr().out == want
