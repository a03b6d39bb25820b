"""README stays in step with the code it lists: tolerance keys, commands, CLI flags and
the module constants it quotes."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from catlab import classical, dynamics, metrology, spin
from catlab.cli import build_parser, config_from_args
from catlab.harness import COMMANDS
from catlab.spin import TOLERANCES

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def paragraph_after(marker: str) -> str:
    """README's text from marker up to the next blank line."""
    start = README.index(marker) + len(marker)
    return README[start:README.index("\n\n", start)]


def parser_flags() -> set[str]:
    """Every long option of every subcommand, --help aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        flag
        for command in sub.choices.values()
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }


def readme_examples() -> list[str]:
    """Every `catlab <command> ...` the README shows: lines of its code blocks and inline
    code spans; the usage line's `<command>` placeholder is not a command."""
    parts = README.split("```")
    lines = [line for block in parts[1::2] for line in block.splitlines()]
    spans = [span for text in parts[::2] for span in re.findall(r"`([^`\n]+)`", text)]
    return [line for line in lines + spans if re.match(r"catlab [a-z]", line)]


def test_readme_lists_every_tolerance_key():
    keys = re.findall(r"`(\w+)`", paragraph_after("Its keys are"))
    assert sorted(keys) == sorted(TOLERANCES)


def test_readme_lists_every_cli_flag():
    flags = set(re.findall(r"`(--[a-z-]+)", paragraph_after("Common flags:")))
    assert flags == parser_flags()


def test_readme_lists_every_command():
    # the list is the paragraph's first sentence
    commands = re.findall(r"`([a-z-]+)`", paragraph_after("Commands:").split(".")[0])
    assert commands == [*COMMANDS, "all-figures"]


@pytest.mark.parametrize("name,module", [
    ("PORTRAIT_AZIMUTHS", classical),
    ("PORTRAIT_T_FINAL", classical),
    ("PORTRAIT_DT", classical),
    ("CLASSIFY_T_MAX", classical),
    ("CLASSIFY_DT", classical),
    ("spin.CHECK_PANEL", spin),
    ("dynamics.PURE_STATE_BETA", dynamics),
    ("metrology.AXIS_THETA_POINTS", metrology),
    ("metrology.AXIS_PHI_POINTS", metrology),
])
def test_readme_quotes_constants_at_their_values(name, module):
    quoted = re.findall(rf"`{re.escape(name)} = ([^`]+)`", README)
    assert quoted, f"README quotes no `{name} = ...`"
    value = getattr(module, name.rpartition(".")[2])
    assert [float(q) for q in quoted] == [value] * len(quoted)


def test_readme_examples_parse():
    examples = readme_examples()
    assert len(examples) >= 6, examples
    for line in examples:
        args = build_parser().parse_args(shlex.split(line)[1:])
        if args.config is None:  # a named config file is the reader's own
            config_from_args(args)


def test_readme_names_every_environment_variable():
    # every variable src/catlab reads or sets, each access naming it by a string literal
    sources = [path.read_text(encoding="utf-8") for path in (ROOT / "src" / "catlab").glob("*.py")]
    names = [name for text in sources
             for name in re.findall(r'os\.environ(?:\.\w+\(|\[)"(\w+)"', text)]
    assert len(names) == sum(text.count("os.environ") for text in sources)
    assert {"CATLAB_WORKERS", "OPENBLAS_THREAD_TIMEOUT"} <= set(names)
    for name in names:
        assert re.search(rf"`{name}\b", README), f"README does not name `{name}`"
