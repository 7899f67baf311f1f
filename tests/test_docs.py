"""The README and the CLI docstring name exactly the pipelines the CLI runs."""

import re
from pathlib import Path

from lrn_detect import cli

README = Path(__file__).parents[1] / "README.md"


def _cli_block() -> str:
    """The shell block under README's "Quick start (CLI)" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (CLI)", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0]


def test_docs_name_every_pipeline_and_no_other():
    usage = set(re.findall(r"^lrn-detect --pipeline (\S+)", _cli_block(), re.MULTILINE))
    assert usage == set(cli.PIPELINES)
    for name in cli.PIPELINES:
        assert f"``{name}``" in cli.__doc__, name
