"""The README's Python example runs against the package as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    # the median relative deviation of single-state Pr from the curve
    assert 0.0 < float(capsys.readouterr().out.split()[-1]) < 0.2
