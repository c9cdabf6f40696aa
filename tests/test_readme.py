"""The README's examples run as written and print what they say."""

import contextlib
import io
import os
import re
import shlex

from taurank.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def fenced_blocks(lang):
    """(heading above the block, block text) for each ```lang block."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    out = []
    for m in re.finditer(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S):
        headings = re.findall(r"^## (.+)$", text[: m.start()], re.M)
        out.append((headings[-1] if headings else "", m.group(1)))
    return out


def test_library_examples_print_their_comments():
    blocks = [code for _, code in fenced_blocks("python")]
    assert blocks
    namespace = {}
    for code in blocks:
        want = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, README, "exec"), namespace)
        assert out.getvalue().splitlines() == want


def test_command_line_examples_exit_as_documented(capsys):
    (code,) = [code for heading, code in fenced_blocks("sh") if heading == "Command line"]
    commands = [shlex.split(line.split("#", 1)[0]) for line in code.splitlines() if line.strip()]
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "taurank"
        want = 10 if argv[1] == "scan" else 0  # the scan example finds a violation
        assert main(argv[1:]) == want, argv
        assert capsys.readouterr().err == ""
