"""The README's claims table names tests that exist, its key tables state
the declared keys, and the README stays short.

The last cell of each claims-table row holds one or more test ids in
backticks: ``path::Class::test`` or ``path::test``, the path relative to the
repository root, with an optional ``[param]`` suffix.  An id resolves when
``path`` is a file under ``tests/`` that defines that class and test
function.  The lookup reads the files with ``ast``: nothing is imported or
collected, so the check is fast and independent of the test run.

A "keys [default]" cell lists each key as its backticked name, then
optionally ``(...)`` and ``[default]``: the parentheses hold the keys of the
key's own section, or the values of its ``Literal``.  The cells are
compared with the declarations: each check kind's keyword-only parameters,
each certificate kind's dataclass fields, and the model's keys with their
``Annotated`` range markers.
"""

import ast
import inspect
import re
import typing
from pathlib import Path

import pytest

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


def table_rows(text, header):
    """The rows of the one table headed ``header``, without its header."""
    matches = [rows for rows in tables(text) if rows[0] == header]
    assert len(matches) == 1, f"expected one table headed {header}"
    return matches[0][1:]


def claim_rows(text):
    """The rows of the claims table, without its header."""
    return table_rows(text, CLAIMS_HEADER)


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


MODEL_HEADER = ["key", "default", "allowed"]
CHECK_HEADER = ["`check`", "claim", "keys [default]", "`tol`"]
CERTIFICATE_HEADER = ["`kind`", "sampled inequality", "keys [default]"]
KEY = re.compile(r"`(\w+)`(?: \((?P<inner>.*)\))?(?: \[(?P<default>[^\]]*)\])?")


def split_items(cell):
    """``cell`` split at each comma outside parentheses and brackets."""
    items, depth, start = [], 0, 0
    for i, char in enumerate(cell):
        depth += (char in "([") - (char in ")]")
        if char == "," and depth == 0:
            items.append(cell[start:i].strip())
            start = i + 1
    return items + [cell[start:].strip()]


def listed_keys(cell):
    """{key: (its default's text or None, its parenthesised keys or None)} of a
    "keys [default]" cell; "none" lists no key."""
    listed = {}
    for item in [] if cell == "none" else split_items(cell):
        match = KEY.fullmatch(item)
        assert match, f"{item!r} is not `key` (...) [default]"
        inner = match["inner"]
        listed[match[1]] = (match["default"], None if inner is None else listed_keys(inner))
    return listed


def states(text, default):
    """Whether ``text``, a README default (None where the README gives none),
    states the declared ``default``.  A None default (the key's value comes
    from elsewhere) takes any text; a required key takes none."""
    if default is inspect.Parameter.empty:
        return text is None
    if default is None or text is None:
        return default is None
    if isinstance(default, bool):
        return text == str(default).lower()
    if isinstance(default, str):
        return text.strip("`") == default
    numbers = default if isinstance(default, tuple) else (default,)
    try:
        return [float(n) for n in text.split(", ")] == [float(n) for n in numbers]
    except ValueError:
        return False


def declared_keys(fn):
    """{key: (default, annotation)} for each key that the config reader reads for ``fn``."""
    from bsdelab.config import _keywords

    return {p.name: (p.default, p.annotation) for p in _keywords(fn)}


def key_problems(where, listed, declared):
    """How ``listed``, as :func:`listed_keys` gives it, differs from ``declared``."""
    problems = [f"{where}: lists {sorted(listed)}, declares {sorted(declared)}"
                ] if listed.keys() != declared.keys() else []
    for key in listed.keys() & declared.keys():
        (text, inner), (default, kind) = listed[key], declared[key]
        if not states(text, default):
            problems.append(f"{where}.{key}: default {text!r}, declared {default!r}")
        if inner is not None and inspect.isfunction(kind):
            problems += key_problems(f"{where}.{key}", inner, declared_keys(kind))
        elif inner is not None and list(inner) != list(typing.get_args(kind)):
            problems.append(f"{where}.{key}: values {list(inner)}, "
                            f"declared {list(typing.get_args(kind))}")
    return problems


def allowed(kind):
    """A model key's range as the README states it: its ``Literal``'s values,
    or its markers' texts; empty for a key ruled only with other keys."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is typing.Literal:
        return ", ".join(f"`{value}`" for value in args)
    return " and ".join(rule.text for rule in args[1:])


def key_table_problems(text):
    """Every difference between the README's model-key, check-kind and
    certificate-kind tables and the declarations."""
    from dataclasses import MISSING, fields

    from bsdelab.certificates import CERTIFICATE_KINDS
    from bsdelab.cli import CHECKS
    from bsdelab.config import _JSON_KEYS, ModelConfig

    problems = []
    model = declared_keys(ModelConfig.keys)
    rows = {row[0].strip("`"): row[1:] for row in table_rows(text, MODEL_HEADER)}
    if rows.keys() != model.keys():
        problems.append(f"model: lists {sorted(rows)}, declares {sorted(model)}")
    for key in rows.keys() & model.keys():
        (given, rule), (default, kind) = rows[key], model[key]
        if not states(None if given == "none" else given, default):
            problems.append(f"model.{key}: default {given!r}, declared {default!r}")
        stated, range_ = rule.split("; ")[0], allowed(kind)
        if stated != range_ and (range_ or not stated.startswith("under ")):
            problems.append(f"model.{key}: allows {stated!r}, declared {range_!r}")

    rows = {row[0].strip("`"): row for row in table_rows(text, CHECK_HEADER)}
    if rows.keys() != CHECKS.keys():
        problems.append(f"checks: lists {sorted(rows)}, declares {sorted(CHECKS)}")
    for kind in rows.keys() & CHECKS.keys():
        declared = declared_keys(CHECKS[kind])
        tol, _ = declared.pop("tol", (None, None))
        problems += key_problems(kind, listed_keys(rows[kind][2]), declared)
        stated, takes = rows[kind][3], tol is not None  # a number only where the kind takes a tol
        if takes != bool(NUMBER.fullmatch(stated)) or takes and not states(stated, tol):
            problems.append(f"{kind}.tol: {stated!r}, declared {tol!r}")

    rows = {row[0].strip("`"): row[2] for row in table_rows(text, CERTIFICATE_HEADER)}
    if rows.keys() != CERTIFICATE_KINDS.keys():
        problems.append(f"certificates: lists {sorted(rows)}, "
                        f"declares {sorted(CERTIFICATE_KINDS)}")
    for kind in rows.keys() & CERTIFICATE_KINDS.keys():
        cls = CERTIFICATE_KINDS[kind]
        declared = {_JSON_KEYS.get(f.name, f.name): (
            inspect.Parameter.empty if f.default is MISSING else f.default,
            typing.get_type_hints(cls)[f.name]) for f in fields(cls)}
        problems += key_problems(kind, listed_keys(rows[kind]), declared)
    return problems


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


def test_key_tables_state_the_declarations():
    assert key_table_problems(README.read_text(encoding="utf-8")) == []


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

    @pytest.mark.parametrize("old, new, problem", [
        ("| `N` | 200 |", "| `steps` | 200 |", "model: lists"),
        ("| `N` | 200 |", "| `N` | 300 |", "model.N: default '300'"),
        ("| `T` | 1.0 | finite and > 0 |", "| `T` | 1.0 | finite and >= 0 |", "model.T: allows"),
        ("| `threads` | 1 | >= 1;", "| `threads` | 1 | any;", "model.threads: allows"),
        ("`n_list` [1, 2, 4, 8]", "`n_lsit` [1, 2, 4, 8]", "monotone_family: lists"),
        ("`points` [25]", "`points` [26]", "envelope_domination.points: default '26'"),
        ("`expected` | 1e-2", "`expected` | 1e-3", "solver_oracle.tol"),
        ("`z_count` [51]) | none |", "`z_count` [51]) | 0 |", "certificate.tol"),
        ("[`below`] | 0 |", "[`below`] | 1e-9 |", "dominance.tol"),
        ("(`f` [0], `u` [1], `v` [1])", "(`f` [0], `u` [2], `v` [1])",
         "envelope_domination.growth.u: default"),
        ("`side` (`below`, `above`)", "`side` (`below`, `over`)", "dominance.side: values"),
        ("`convex` [true]", "`convex` [false]", "convexity_z.convex: default"),
        ("`lambda`, `alpha`, `f` [none]", "`lam`, `alpha`, `f` [none]", "sublinear_diff_z: lists"),
    ])
    def test_an_edited_key_table_is_named(self, old, new, problem):
        text = README.read_text(encoding="utf-8")
        assert text.count(old) == 1 and key_table_problems(text) == []
        assert any(p.startswith(problem) for p in key_table_problems(text.replace(old, new)))
