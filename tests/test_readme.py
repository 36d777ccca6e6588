"""README's command examples against the CLI: every `biortho` line parses,
and the lines whose output README states print it."""

import json
import re
import shlex
from pathlib import Path

import pytest

from biortho import cli, gas_sampler

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """(argv, comment) of every `biortho` line in README's sh blocks, with
    continued lines joined."""
    found = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            if command.startswith("biortho "):
                found.append((shlex.split(command)[1:], comment.strip()))
    return found


COMMANDS = readme_commands()


def test_readme_lists_every_subcommand():
    assert {argv[0] for argv, _ in COMMANDS} == {
        "lambertw", "dh", "sample-matrix", "sample-gas", "equilibrium", "rate-largest",
        "quantile-check", "verify"}


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS], ids=" ".join)
def test_readme_command_parses(argv):
    # a flag README names that the parser lacks exits 1 here
    assert cli.build_parser().parse_args(argv).cmd == argv[0]


def _line(argv):
    """The README comment of the command line argv."""
    [comment] = [c for a, c in COMMANDS if a == argv]
    return comment


def test_dh_moment_prints_as_stated(capsys):
    argv = ["dh", "moment", "--k", "3"]
    assert _line(argv).startswith("1.125 ")
    assert cli.dispatch(argv) == 0
    assert capsys.readouterr().out == "1.125\n"


def test_uniform_quantile_check_reports_as_stated(capsys):
    argv = ["quantile-check", "--dist", "uniform:1,2", "--n", "1000", "--eps", "0.1",
            "--g", "log"]
    assert _line(argv).endswith("ratios_evaluated: 27595")
    assert cli.dispatch(argv) == 0
    assert json.loads(capsys.readouterr().out)["ratios_evaluated"] == 27595


def test_readme_lists_every_interaction_map():
    # README's map names, aliases included, are exactly those GFunction.parse
    # accepts among the kinds, their prefixes and README's own names
    text = README.read_text()
    para = text[text.index("Interaction maps:"):text.index("Potentials are")]
    names = {m.partition(":")[0] for m in re.findall(r"`([^`]+)`", para)}

    def parses(name):
        try:
            return gas_sampler.GFunction.parse(name).kind
        except ValueError:
            return None

    kinds = set(gas_sampler._G_KINDS)
    candidates = names | {k[:j] for k in kinds for j in range(1, len(k) + 1)}
    assert {c for c in candidates if parses(c)} == names
    assert {parses(name) for name in names} == kinds
