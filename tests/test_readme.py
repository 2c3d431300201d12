"""README's library tour and v1 schema table, checked against the program."""

import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()


def section(heading: str) -> str:
    return README.split(f"\n{heading}\n", 1)[1]


def test_library_quick_tour_runs():
    code = section("## Library quick tour").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


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
