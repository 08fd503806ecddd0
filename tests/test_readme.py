"""The README's library quickstart runs as written, its library section
calls only names the package exports, and its config-key table lists what
the CLI reads."""

import re
from pathlib import Path

import brsnis
from brsnis import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "bias bound:" in capsys.readouterr().out


def test_library_section_calls_exported_names():
    """Every name called in inline code of the library section, such as
    ``rolling_estimate(`` (a method such as ``model.propose(`` aside), is an
    attribute of ``brsnis``; a removed name such as ``ChainTrace(`` fails."""
    text = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    section = re.sub(r"```.*?```", "", text.split("\n## ", 1)[0], flags=re.DOTALL)
    called = {name for span in re.findall(r"`([^`]+)`", section)
              for name in re.findall(r"(?<![\w.])([A-Za-z_]\w*)\(", span)}
    assert "rolling_estimate" in called
    assert sorted(name for name in called if not hasattr(brsnis, name)) == []


def test_config_key_table_matches_config_keys():
    """Every section of ``cli.CONFIG_KEYS`` has its keys in the README table,
    the keys every subcommand shares under "every subcommand", and the table
    names no key the CLI does not read."""
    text = README.read_text(encoding="utf-8").split("#### Config keys", 1)[1]
    table = re.search(r"^\|.*?(?=\n\n)", text, re.DOTALL | re.MULTILINE).group(0)
    documented = {}
    for line in table.splitlines()[2:]:  # past the header and its rule
        section, keys = (cell.strip() for cell in line.split("|")[1:3])
        if section:
            name = (re.findall(r"`([^`]+)`", section) or [section])[0]
        documented.setdefault(name, set()).update(re.findall(r"`([^`]+)`", keys))
    shared = documented.pop("every subcommand")
    assert set(documented) == set(cli.CONFIG_KEYS)
    for name, keys in cli.CONFIG_KEYS.items():
        assert set(keys) == documented[name] | (shared if shared <= set(keys) else set()), \
            name
