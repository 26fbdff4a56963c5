"""Smoke tests: every demo script runs to completion, and so do the
README's examples."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conjresp import cli
from conjresp.config import CUSTOM_STRATEGY_KEYS, KEYS, load_config

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    # run in a temporary directory so any figure a demo saves lands there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def readme_block(heading: str, language: str) -> str:
    """The first fenced ``language`` block under the README heading."""
    section = (ROOT / "README.md").read_text().split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


def test_readme_quick_start_runs(capsys):
    exec(compile(readme_block("## Library quick start", "python"), "README.md", "exec"), {})
    identity, transfer, order = (float(line) for line in capsys.readouterr().out.split())
    assert identity <= 1e-12 and transfer <= 1e-12 and abs(order - 2.0) <= 0.05


def test_readme_config_example_loads(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(readme_block("### Config schema", "json"))
    assert load_config(path)["scenario_id"] == "doubling-cos"


def test_readme_config_table_is_the_schema():
    section = (ROOT / "README.md").read_text().split("\n### Config schema\n", 1)[1]
    rows = re.findall(r"^\| `([^`]+)` \|", section.split("\n### ", 1)[0], re.MULTILINE)
    keys = ["scenario_id", "strategy",
            *(f"strategy.custom.{key}" for key in CUSTOM_STRATEGY_KEYS),
            *(f"{name}.{key}" for name, table in KEYS.items() for key in table)]
    assert sorted(rows) == sorted(keys)


@pytest.mark.parametrize("where", ["README.md", "cli module docstring"])
def test_documented_usage_line_is_the_parser(where):
    text = readme_block("## Command line", "") if where == "README.md" else cli.__doc__
    line = next(line for line in text.splitlines() if line.strip().startswith("conjresp <"))
    flags = {option for action in cli._build_parser()._actions
             for option in action.option_strings if option not in ("-h", "--help")}
    assert re.search(r"<([^>]*)>", line)[1].split("|") == list(cli._COMMANDS)
    assert set(re.findall(r"--[\w-]+", line)) == flags
