"""README and the CLI docstring name exactly the pipelines, flags and names the code has."""

import importlib
import re
from pathlib import Path

from lrn_detect import cli

README = Path(__file__).parents[1] / "README.md"


def _cli_block() -> str:
    """The shell block under README's "Quick start (CLI)" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (CLI)", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0]


def test_readme_library_quick_start_runs():
    # A name the README imports but the package no longer exports fails here.
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})


def test_docs_name_every_pipeline_and_no_other():
    usage = set(re.findall(r"^lrn-detect --pipeline (\S+)", _cli_block(), re.MULTILINE))
    assert usage == set(cli.PIPELINES)
    for name in cli.PIPELINES:
        assert f"``{name}``" in cli.__doc__, name


def test_readme_flags_line_names_every_option_and_no_other():
    # A flag removed from the parser but left in the docs fails here.
    text = README.read_text(encoding="utf-8")
    flags = text.split("Flags: `", 1)[1].split("`", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", flags))
    options = {
        s for action in cli._parser()._actions for s in action.option_strings
        if s.startswith("--")
    }
    assert named == options


def test_readme_module_names_resolve():
    # A constant renamed or deleted in the code but left in the docs fails here.
    text = README.read_text(encoding="utf-8")
    named = set(re.findall(r"`([a-z_]+)\.([A-Za-z_]\w*)`", text))
    assert named
    missing = [
        f"{module}.{name}" for module, name in sorted(named)
        if not hasattr(importlib.import_module(f"lrn_detect.{module}"), name)
    ]
    assert missing == []


def test_readme_layout_block_names_every_module_and_no_other():
    # A module added, deleted or renamed under src/lrn_detect but not in the
    # README's layout block fails here.
    text = README.read_text(encoding="utf-8")
    block = text.split("## Package layout", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    named = re.findall(r"^  (\S+\.py) ", block, re.MULTILINE)
    package = Path(cli.__file__).parent
    assert sorted(named) == sorted(p.name for p in package.glob("*.py"))
