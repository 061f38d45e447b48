"""README's library example runs and prints the values its comments state."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_commented_values():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    expected = [line.partition("# ")[2].split() for line in prints]
    assert all(expected), "every print of the example needs a '# value' comment"
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    printed = [line.split() for line in proc.stdout.splitlines()]
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        assert len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            if w in ("True", "False"):
                assert g == w
            else:
                assert float(g) == pytest.approx(float(w), rel=1e-9), (got, want)
