"""The README's claims table names tests that exist, and the README stays short.

The last cell of each claims-table row holds one or more test ids in
backticks: ``path::Class::test`` or ``path::test``, the path relative to the
repository root, with an optional ``[param]`` suffix.  An id resolves when
``path`` is a file under ``tests/`` that defines that class and test
function.  The lookup reads the files with ``ast``: nothing is imported or
collected, so the check is fast and independent of the test run.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
WORD_BUDGET = 1500
CLAIMS_HEADER = ["claim", "domain", "tolerance", "test"]
TEST_ID = re.compile(r"`(tests/[^`\s]+::[^`\s]+)`")
# a number standing alone: not part of a name (y1, SHA-256) or of an exponent (L^1)
NUMBER = re.compile(r"(?<![\w.^-])\d+(?:\.\d+)?(?:e-?\d+)?(?![\w.])")


def tables(text):
    """Every markdown table in ``text``, as a list of rows of stripped cells
    without the separator row."""
    found, rows = [], []
    for line in text.splitlines() + [""]:
        if line.startswith("|"):
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip())[1:-1]]
            if not all(re.fullmatch(r":?-+:?", c) for c in cells):
                rows.append(cells)
        elif rows:
            found.append(rows)
            rows = []
    return found


def claim_rows(text):
    """The rows of the claims table, without its header."""
    matches = [rows for rows in tables(text) if rows[0] == CLAIMS_HEADER]
    assert len(matches) == 1, f"expected one table headed {CLAIMS_HEADER}"
    return matches[0][1:]


def unresolved(test_id):
    """Why ``test_id`` names no test under ``tests/``, or None when it names one."""
    path, *names = test_id.split("::")
    names[-1], param, _ = names[-1].partition("[")
    file = (ROOT / path).resolve()
    if file.parent != ROOT / "tests" or not file.is_file():
        return f"{test_id}: {path} is not a file in tests/"
    scope, chain = ast.parse(file.read_text(encoding="utf-8")).body, []
    for depth, name in enumerate(names):
        kind = ast.FunctionDef if depth == len(names) - 1 else ast.ClassDef
        node = next((n for n in scope if isinstance(n, kind) and n.name == name), None)
        if node is None or not name.lower().startswith("test"):
            return f"{test_id}: {path} defines no test {'::'.join(names[:depth + 1])}"
        scope = node.body
        chain.append(node)
    decorators = [ast.unparse(d) for node in chain for d in node.decorator_list]
    if param and not any("parametrize" in d for d in decorators):
        return f"{test_id}: the test takes no parameters"
    return None


def claim_problems(text):
    """Every row of the claims table without a test id, and every id that does not resolve."""
    problems = []
    for row in claim_rows(text):
        ids = TEST_ID.findall(row[-1])
        if len(row) != len(CLAIMS_HEADER) or not ids:
            problems.append(f"row {row[0]!r}: needs {len(CLAIMS_HEADER)} cells and a test id")
        problems += [p for p in map(unresolved, ids) if p]
    return problems


def over_budget(text):
    """The word count, as ``wc -w`` gives it, when it exceeds the budget; else None."""
    words = len(text.split())
    return words if words > WORD_BUDGET else None


def prose(text):
    """The README without its tables and fenced or indented code."""
    kept, fenced = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not (fenced or line.startswith(("|", "    "))):
            kept.append(line)
    return "\n".join(kept)


def test_every_claim_names_a_test_that_exists():
    assert claim_problems(README.read_text(encoding="utf-8")) == []


def test_every_acceptance_criterion_is_claimed():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    criteria = {f"tests/test_acceptance.py::{node.name}" for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_")}
    claimed = {i for row in claim_rows(README.read_text(encoding="utf-8"))
               for i in TEST_ID.findall(row[-1])}
    assert len(criteria) == 10
    assert criteria <= claimed


def test_readme_is_within_its_word_budget():
    assert over_budget(README.read_text(encoding="utf-8")) is None


def test_every_number_in_the_prose_is_in_a_table():
    text = README.read_text(encoding="utf-8")
    in_tables = {n for rows in tables(text) for row in rows for cell in row
                 for n in NUMBER.findall(cell)}
    assert set(NUMBER.findall(prose(text))) <= in_tables


class TestNegativeControls:
    """Each check above fails on a README that breaks its rule."""

    def test_a_renamed_test_does_not_resolve(self):
        text = README.read_text(encoding="utf-8")
        first = TEST_ID.findall(claim_rows(text)[0][-1])[0]
        path, name = first.rsplit("::", 1)
        for renamed in (f"{first}_renamed", f"{path}::TestMissing::{name}",
                        first.replace("tests/", "tests/missing_", 1)):
            assert unresolved(renamed) is not None
            assert claim_problems(text.replace(f"`{first}`", f"`{renamed}`"))

    def test_a_parameter_on_an_unparametrised_test_does_not_resolve(self):
        test_id = "tests/test_acceptance.py::test_criterion_09_modulus_majorant"
        assert unresolved(test_id) is None
        assert unresolved(f"{test_id}[7]") is not None

    def test_a_row_without_a_test_id_is_named(self):
        text = README.read_text(encoding="utf-8")
        row = claim_rows(text)[0]
        bare = text.replace(row[-1], "none", 1)
        assert any(p.startswith(f"row {row[0]!r}") for p in claim_problems(bare))

    def test_an_over_budget_readme_fails(self):
        text = README.read_text(encoding="utf-8")
        padded = text + " word" * (WORD_BUDGET + 1 - len(text.split()))
        assert over_budget(padded) == WORD_BUDGET + 1

    def test_a_number_only_in_the_prose_is_found(self):
        text = README.read_text(encoding="utf-8") + "\nIt runs in 0.4321 s, not SHA-7.\n"
        assert NUMBER.findall(prose(text)) == ["0.4321"]
