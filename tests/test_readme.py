"""README's "Theorem catalog" lists every statement of verify's catalog, in
catalog order, and gives each count statement's clauses as
verify.COUNT_STATEMENTS writes them and each family statement's member
kinds and matrices as verify.FAMILY_STATEMENTS writes them, so that a
statement cannot be added undocumented."""

import re
from pathlib import Path

from qdist import verify

README = Path(__file__).resolve().parents[1] / "README.md"


def _catalog() -> str:
    return README.read_text().split("\n## Theorem catalog\n", 1)[1].split("\n## ", 1)[0]


def _tables(section: str) -> list[list[list[str]]]:
    """The rows of each markdown table of the section, header and rule left out, as lists of cells."""
    tables, rows = [], []
    for line in section.splitlines() + [""]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            tables.append(rows[2:])
            rows = []
    return tables


def test_readme_catalog_lists_every_statement_in_catalog_order():
    section = _catalog()
    per_graph, family, _ = _tables(section)
    assert tuple(row[0].strip("`") for row in per_graph) == tuple(verify.GRAPH_THEOREMS)
    assert tuple(row[0].strip("`") for row in family) == verify.FAMILY_THEOREM_IDS


def test_readme_gives_each_count_clause_as_the_table_writes_it():
    _, _, rows = _tables(_catalog())
    want = [(tid, c.kind, c.side) for tid, s in verify.COUNT_STATEMENTS.items() for c in s.clauses]
    assert [(row[0].strip("`"), row[2].split("(")[0], row[3]) for row in rows] == want


def test_readme_gives_each_family_statement_as_the_table_writes_it():
    _, rows, _ = _tables(_catalog())
    want = []
    for tid, s in verify.FAMILY_STATEMENTS.items():
        grid = [p for n in range(verify.FAMILY_MIN, verify.FAMILY_LIMIT + 1) for p in s.grid(n)]
        want.append((tid, {s.member(*p)[0] for p in grid}, s.matrices))
    got = [(row[0].strip("`"), set(re.findall(r"`(\w+)\(", row[1])), tuple(m.strip() for m in row[3].split(",")))
           for row in rows]
    assert got == want
