"""README stays in step with the code it lists: tolerance keys, commands, CLI flags and
the module constants it quotes."""

import argparse
import re
from pathlib import Path

import pytest

from catlab import classical, dynamics, spin
from catlab.cli import build_parser
from catlab.harness import COMMANDS
from catlab.spin import TOLERANCES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


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
])
def test_readme_quotes_constants_at_their_values(name, module):
    quoted = re.findall(rf"`{re.escape(name)} = ([^`]+)`", README)
    assert quoted, f"README quotes no `{name} = ...`"
    value = getattr(module, name.rpartition(".")[2])
    assert [float(q) for q in quoted] == [value] * len(quoted)
