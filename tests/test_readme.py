"""README.md as a contract: its `>>>` session runs against the `hsc`
package namespace, and each `$ hsc ...` example prints what it shows."""

import doctest
import re
import shlex
from pathlib import Path

import hsc
from hsc.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)


def fenced_blocks(language):
    return [body for lang, body in FENCED.findall(README) if lang == language]


def shell_examples():
    """(argv, shown output) of every `$ hsc` line, in README order."""
    examples = []
    for block in fenced_blocks("sh"):
        for chunk in block.split("\n\n"):
            command, *shown = chunk.strip("\n").split("\n")
            if command.startswith("$ hsc "):
                argv = shlex.split(command.removeprefix("$ hsc "))
                examples.append((argv, "".join(line + "\n" for line in shown)))
    return examples


def test_readme_session_runs_against_the_package():
    (session,) = fenced_blocks("python")
    test = doctest.DocTestParser().get_doctest(session, {}, "README", "README.md", 0)
    assert test.examples
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def test_readme_uses_only_the_public_api():
    session = "\n".join(fenced_blocks("python"))
    used = set(re.findall(r"\bhsc\.(\w+)", session))
    assert used and used <= set(hsc.__all__)
    assert len(hsc.__all__) <= 12


def test_readme_commands_print_what_they_show(capsys, tmp_path, monkeypatch):
    # The examples share one working directory: `construct` writes the
    # file that the later examples read.
    monkeypatch.chdir(tmp_path)
    examples = shell_examples()
    assert [argv[0] for argv, _ in examples] == [
        "construct",
        "verify",
        "invariants",
        "parity",
        "residues",
        "search",
    ]
    for argv, shown in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == shown, argv
