"""Definitions in ``src/bsdelab`` that neither the command line nor a README claim reaches.

Run from the repository root as ``python -m tests.reach``.  It runs pytest on
``tests/test_cli.py`` and on every test id in the README's claims table under
``sys.setprofile``, then lists each ``def`` in ``src/bsdelab/*.py`` that was
never entered (a ``def`` inside one is not listed again).  It exits 1 on a
name missing from ``ALLOWED``, on an ``ALLOWED`` name that is now reached or
no longer defined, and when a selected test fails.
"""

import ast
import sys
import threading

from tests.test_readme import README, ROOT, TEST_ID, claim_rows

SRC = ROOT / "src" / "bsdelab"

# Each name below is defined but not reached, and stays for the reason given.
_ERROR = "builds an error or its message on a path no selected test takes"
_BENCH = "the benchmark under perfbench/ calls it"
_TRANSFORM = "ROADMAP Direction 2 (the exponential transform on Monte Carlo) may use it"
ALLOWED = {
    "envelopes.WedgeSupConvolutionEnvelope._box.bound": _ERROR,
    "ode_bounds.NonPositiveError.__init__": _ERROR,
    "solver.RankDeficientError.__init__": _ERROR,
    "ode_bounds.osgood_diagnostic": _BENCH,
    "envelopes.LinearGrowthBound.from_parts": _BENCH,
    "transforms.inverse_exp_transform": _TRANSFORM,
    "transforms.gamma_for_band": _TRANSFORM,
    "transforms.qs_bounds": _TRANSFORM,
    "envelopes.LipschitzEnvelope.__call__": "the envelope's documented callable form; "
                                            "the checks call batch",
    "expressions.Expression.__repr__": "a debugging aid",
    "expressions.Expression.__setattr__": "refuses writes to a frozen expression",
}


def definitions(src=SRC):
    """{(file, first line): (dotted name, line count)} for each def in the
    ``src`` directory's modules, nested ones keyed too."""
    found = {}

    def walk(nodes, prefix, path):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{node.name}"
                if isinstance(node, ast.FunctionDef):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found[(path, first)] = (name, node.end_lineno - first + 1)
                walk(node.body, name, path)

    for file in sorted(src.glob("*.py")):
        walk(ast.parse(file.read_text(encoding="utf-8")).body, file.stem, str(file))
    return found


def verdict(found, entered):
    """The unreached definitions of ``found`` ({name: lines}, a def inside an
    unreached one left out) and the problems with them, given the ``entered``
    (file, first line) keys."""
    unreached = {name: lines for key, (name, lines) in found.items() if key not in entered}
    unreached = {name: lines for name, lines in unreached.items()
                 if not any(name.startswith(f"{outer}.") for outer in unreached)}
    names = {name for name, _ in found.values()}
    problems = [f"{name}: unreached and not in ALLOWED" for name in unreached
                if name not in ALLOWED]
    problems += [f"{name}: in ALLOWED but {'reached' if name in names else 'not defined'}"
                 for name in ALLOWED if name not in unreached]
    return unreached, problems


def main():
    import pytest

    ids = [str(ROOT / i) for row in claim_rows(README.read_text(encoding="utf-8"))
           for i in TEST_ID.findall(row[-1])]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.path.insert(0, str(ROOT / "src"))
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests" / "test_cli.py"), *dict.fromkeys(ids)])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    if status != 0:
        print(f"reach: the selected tests did not pass (pytest exit {int(status)})")
        return 1
    unreached, problems = verdict(definitions(), entered)
    print(f"reach: {len(unreached)} unreached definitions, {sum(unreached.values())} lines")
    for name, lines in sorted(unreached.items()):
        print(f"  {name} ({lines} lines): {ALLOWED.get(name, 'NOT ALLOWED')}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
