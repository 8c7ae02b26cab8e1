"""The README's command-line walkthrough and library example run as
written, its config table is the one the CLI derives, and its layout table
names only what each module holds."""

import importlib
import math
import pkgutil
import re
import shlex
from pathlib import Path

import stridect as st
import stridect.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_line_walkthrough_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    section = text[text.index("## Command line"):]
    script = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True)
                for line in script.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "stridect" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    for name in ("ph.pgm", "rec.bin", "rec.pgm", "stages.csv", "fbp.bin", "ablation.csv"):
        assert (tmp_path / name).is_file(), name


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


def test_readme_layout_names_exist_in_their_modules():
    # every backticked name in a Layout row, other than a module's, is an
    # attribute of that row's module, so a deleted name cannot stay listed
    modules = {m.name for m in pkgutil.iter_modules(st.__path__)}
    text = README.read_text()
    section = text[text.index("## Layout"):text.index("## Tests")]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    assert rows
    for name, contents in rows:
        module = importlib.import_module(f"stridect.{name}")
        for ident in re.findall(r"`([A-Za-z_]\w*)`", contents):
            if ident not in modules:
                assert hasattr(module, ident), (name, ident)
