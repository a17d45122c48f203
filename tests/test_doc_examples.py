"""The documented examples run: the yaml block under "Config format
(schema 1)" in README.md and the example document in the docstring of
uikf.config, each through `uikf simulate`, and the python block under
"Library example" in README.md."""

import math
import re
import textwrap
from pathlib import Path

import pytest

from uikf import cli, config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_example() -> str:
    section = README.read_text().split("### Config format (schema 1)", 1)[1]
    return re.search(r"```yaml\n(.*?)```", section, re.S).group(1)


def docstring_example() -> str:
    doc = config.__doc__.split("Example document:", 1)[1]
    return textwrap.dedent(doc)


@pytest.mark.parametrize("example", [readme_example, docstring_example], ids=["readme", "config-docstring"])
def test_documented_config_runs(tmp_path, capsys, example):
    path = tmp_path / "scenario.yaml"
    path.write_text(example())
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "scenario_summary.csv").exists()
    assert capsys.readouterr().err == ""


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    exec(re.search(r"```python\n(.*?)```", section, re.S).group(1), {})
    printed = capsys.readouterr().out
    values = [float(v) for v in re.findall(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf", printed)]
    assert values and all(math.isfinite(v) for v in values), printed
