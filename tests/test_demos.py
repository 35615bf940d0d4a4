"""Every demo script's main() runs to completion, and README lists each one."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the body of README's "Demos" section, up to the next heading
README_DEMOS = re.compile(r"^## Demos\n(.*?)^## ", re.MULTILINE | re.DOTALL)


def test_demos_found():
    # a demo shows what no `sinklap` command prints; what a command shows is
    # told next to it in README's "Command line" section
    assert [p.name for p in DEMOS] == ["noise_robustness.py", "sk_convergence.py"]
    section = README_DEMOS.search((ROOT / "README.md").read_text()).group(1)
    listed = re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE)
    assert sorted(listed) == [p.name for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path))["main"]()
    assert capsys.readouterr().out
