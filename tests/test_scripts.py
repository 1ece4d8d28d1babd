import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize(
    "name, argv, shape",
    [
        ("convergence_study", ["--steps", "10", "20"], (1 + 3 * 2, 4)),
        ("envelope_sweep", ["--ns", "2", "4", "--points", "5"], (1 + 5, 4)),
    ],
)
def test_script_writes_its_csv(tmp_path, capsys, name, argv, shape):
    out = tmp_path / f"{name}.csv"
    assert load(name).main([*argv, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert (len(rows), len(rows[0])) == shape
    assert all(len(row) == shape[1] for row in rows)
    assert f"wrote {out}" in capsys.readouterr().out
