"""The README's library quickstart runs as written, and its config-key table
lists what the CLI reads."""

import re
from pathlib import Path

from brsnis import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "bias bound:" in capsys.readouterr().out


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
