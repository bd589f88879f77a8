"""The README's command-line examples run as shown.

The ```sh block of README.md is read line by line: a `cat > FILE <<EOF`
heredoc writes FILE, each `ffcheb ...` line (with its `\\` continuations
joined) runs through `cli.main` in a scratch directory, and the text of a
`#` comment on the line or on the lines below it must appear in that
command's output.
"""

import re
import shlex
from pathlib import Path

from ffcheb.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _sh_lines():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    block = next(b for b in blocks if "\nffcheb " in "\n" + b)
    return block.replace("\\\n", " ").splitlines()


def _script():
    """(files, commands): the heredoc files by name, and (argv, shown
    outputs) per `ffcheb` line."""
    files, commands = {}, []
    lines = iter(_sh_lines())
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<EOF", line)
        if heredoc:
            body = []
            for inner in lines:
                if inner == "EOF":
                    break
                body.append(inner + "\n")
            files[heredoc.group(1)] = "".join(body)
        elif line.startswith("ffcheb "):
            command, _, comment = line.partition(" #")
            commands.append((shlex.split(command)[1:], [comment.strip()] if comment else []))
        elif line.startswith("#") and commands:
            commands[-1][1].append(line.lstrip("#").strip())
    return files, commands


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    files, commands = _script()
    assert list(files) == ["quad.cov"]
    assert [argv[0] for argv, _ in commands] == [
        "factor", "wreath-mean", "frobenius", "interval-mean", "census", "cheb-grid", "zeta",
        "psi-check",
    ]
    shown = [text for _, outputs in commands for text in outputs]
    assert shown == ["(2 + T)(3 + T)", "1/6", "class 1 (nontrivial)"]
    monkeypatch.chdir(tmp_path)
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    for argv, outputs in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        for text in outputs:
            assert text in out, (argv, text)
