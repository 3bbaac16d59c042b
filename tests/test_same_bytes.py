"""The command set of `tools/same_bytes.py` stays runnable.

Every argv must parse through the CLI's own entry point, given the
command's config, and a command that reads an earlier one's output
(../NAME/...), in its argv or config, must name a command that runs
before it, and each demo the tool runs must exist. Nothing is run here:
each subcommand is replaced by a stub.
"""

import importlib.util
import json
import re
from pathlib import Path

from driftlearn import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_command_parses_and_reads_only_earlier_outputs(monkeypatch, tmp_path):
    tool = _tool()
    names = [name for name, *_ in tool.COMMANDS]
    assert len(set(names)) == len(names)
    assert set(tool.FILES) <= set(names)
    monkeypatch.chdir(tmp_path)  # where each config is written as config.json
    for subcommand in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, subcommand, lambda args: args)
    for i, (name, argv, *config) in enumerate(tool.COMMANDS):
        config = config[0] if config else None
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
        args = cli.main(argv)  # a bad argv exits, failing the test
        assert args.subcommand == argv[2 if config else 0], name  # after --config config.json
        for ref in re.findall(r"\.\./([^/]+)/", " ".join(argv) + json.dumps(config)):
            assert ref in names[:i], f"{name} reads the output of {ref}, which has not run"


def test_every_named_demo_exists():
    tool = _tool()
    assert tool.DEMOS
    for demo in tool.DEMOS:
        assert (tool.ROOT / "demos" / demo).is_file(), demo
