"""The command set of `tools/same_bytes.py` stays runnable.

Every argv must parse with the CLI's own parser, and a command that reads
an earlier one's output (../NAME/...) must name a command that runs before
it. Nothing is run here.
"""

import importlib.util
import re
from pathlib import Path

from driftlearn import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"


def test_every_command_parses_and_reads_only_earlier_outputs():
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = [name for name, _ in tool.COMMANDS]
    assert len(set(names)) == len(names)
    for i, (name, argv) in enumerate(tool.COMMANDS):
        args = cli.build_parser().parse_args(argv)  # a bad argv exits, failing the test
        assert args.subcommand == argv[0], name
        for ref in re.findall(r"\.\./([^/]+)/", " ".join(argv)):
            assert ref in names[:i], f"{name} reads the output of {ref}, which has not run"
