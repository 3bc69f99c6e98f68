"""The README's examples run as written, so the docs cannot drift from the code."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from qinflate.cli import build_parser, load_state, main
from qinflate.linalg import DensityMatrix

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_state_file_example(tmp_path, capsys):
    (doc,) = _blocks("json")
    path = tmp_path / "state.json"
    path.write_text(doc)
    assert isinstance(load_state(str(path)), DensityMatrix)
    # werner_ghz at p = 0.6 is witnessed: exit code 2
    assert main(["witness", str(path)]) == 2


def test_library_example(capsys):
    (code,) = _blocks("python")
    exec(code, {})
    status, value = capsys.readouterr().out.split()
    want_status, want_value = code.rsplit("#", 1)[1].split()
    assert status == want_status
    assert abs(float(value) - float(want_value)) <= 1e-12


def test_cli_examples_parse():
    # every documented command line is one the parser accepts, without running it
    lines = [shlex.split(line, comments=True) for block in _blocks("sh")
             for line in block.splitlines() if line.startswith("qinflate ")]
    assert len(lines) >= 8
    for argv in lines:
        args = build_parser().parse_args(argv[1:])
        assert args.command == argv[1]
