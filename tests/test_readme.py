"""The README's library example runs as written, and its config table is
the one the CLI derives."""

import math
import re
from pathlib import Path

import stridect as st
import stridect.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out.strip()))


def test_readme_config_table_matches_the_derived_keys():
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)\.(\w+)` \| (\w+) \| `([^`]*)` \|$",
                      README.read_text(), re.M)
    cfg = st.PipelineConfig()
    expect = []
    for key, (sec, name, tp) in cli.CONFIG_SCHEMA.items():
        owner = cfg if sec is None else getattr(cfg, sec)
        expect.append((key, type(owner).__name__, name, tp.__name__,
                       str(getattr(owner, name))))
    assert rows == expect
