"""The README's library example runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out.strip()))
