"""The README's examples run as written: the library quick start, the
topology example, and every ``flowcheck`` command line, in process and from
the repository root; every ``fc.<name>`` it mentions is a real attribute of
the package; and the policy keys it lists as rejected are the ones ingest
rejects."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

import flowcheck
from flowcheck import ingest
from flowcheck.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def _commands() -> list[list[str]]:
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "flowcheck":
                commands.append(words[1:])
    return commands


COMMANDS = _commands()


def test_library_quick_start_runs():
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})


def test_every_named_api_exists():
    names = set(re.findall(r"\bfc\.(\w+)", README))
    assert {"evaluate", "explain", "PolicySet"} <= names
    assert [name for name in sorted(names) if not hasattr(flowcheck, name)] == []


def test_rejected_policy_keys_are_the_widening_table():
    # the "Policy documents" paragraph names them as one backticked list
    (listed,) = re.findall(r"rejected when non-empty[^:]*:((?:\s*`\w+`,?)+)", README)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(ingest._WIDENING)


def test_topology_example_deploys_its_named_applications():
    (text,) = _blocks("yaml")
    state, names = flowcheck.assemble_state((), flowcheck.parse_topology(text))
    assert names == {1: "Client", 2: "WebUI"}
    assert {app.app_id for app in state.applications} == {1, 2}


def test_every_subcommand_has_an_example():
    assert {args[0] for args in COMMANDS} == {"check", "reachability", "explain"}


@pytest.mark.parametrize("args", COMMANDS, ids=[" ".join(args) for args in COMMANDS])
def test_command_line_example_runs(args, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(args) in (0, 1), capsys.readouterr().err
