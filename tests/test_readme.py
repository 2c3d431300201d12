"""README's library tour, CLI examples and v1 schema table, and the demos'
CLI invocations, checked against the program."""

import ast
import pathlib
import re
import shlex

import pytest

from doublespend.cli import build_parser

ROOT = pathlib.Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()


def section(heading: str) -> str:
    return README.split(f"\n{heading}\n", 1)[1]


def test_library_quick_tour_runs():
    code = section("## Library quick tour").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def shell_commands(text: str) -> list[str]:
    """Each `doublespend ...` command in text, its continuation lines joined."""
    lines = text.replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("doublespend ")]


def demo_invocation(path: pathlib.Path) -> str:
    docstring = ast.get_docstring(ast.parse(path.read_text()))
    return docstring.split("Equivalent CLI invocation:", 1)[1]


CLI_EXAMPLES = [
    *(pytest.param(command, id=f"README-{i}")
      for i, command in enumerate(shell_commands(section("## CLI").split("```", 2)[1]))),
    *(pytest.param(command, id=path.name)
      for path in sorted((ROOT / "demos").glob("*.py"))
      if "Equivalent CLI invocation:" in path.read_text()
      for command in shell_commands(demo_invocation(path))),
]


def test_cli_examples_are_found():
    assert len(CLI_EXAMPLES) == 7


@pytest.mark.parametrize("command", CLI_EXAMPLES)
def test_cli_example_parses(command):
    build_parser().parse_args(shlex.split(command)[1:])


def test_schema_table_columns_are_golden_headers():
    table = section("### Output schemas (v1)").split("\n\n", 2)[1]
    columns = re.findall(r"^\| `[^`]+`[^|]* \| `([^`]+)` \|$", table, re.MULTILINE)
    headers = {
        block.split("\n", 1)[0]
        for path in (ROOT / "tests" / "golden").glob("*.csv")
        for block in path.read_text().split("\n\n")
    }
    assert len(columns) == 7
    assert set(columns) <= headers, set(columns) - headers
