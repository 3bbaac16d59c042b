"""The command set of `tools/same_bytes.py` stays runnable.

Every argv must parse with the CLI's own parser, given the command's
config, and a command that reads an earlier one's output (../NAME/...),
in its argv or config, must name a command that runs before it. Nothing
is run here.
"""

import importlib.util
import json
import re
from pathlib import Path

from driftlearn import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"


def test_every_command_parses_and_reads_only_earlier_outputs():
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = [name for name, *_ in tool.COMMANDS]
    assert len(set(names)) == len(names)
    for i, (name, argv, *config) in enumerate(tool.COMMANDS):
        config = config[0] if config else None
        args = cli.build_parser(config).parse_args(argv)  # a bad argv exits, failing the test
        assert args.subcommand == argv[2 if config else 0], name  # after --config config.json
        for ref in re.findall(r"\.\./([^/]+)/", " ".join(argv) + json.dumps(config)):
            assert ref in names[:i], f"{name} reads the output of {ref}, which has not run"
