"""README.md as a contract: its `>>>` session runs against the `hsc`
package namespace, each `$ hsc ...` example prints what it shows, and
every name a module exports is called by the program, named in the README
or patched by the benchmark's tracer."""

import ast
import doctest
import importlib
import re
import shlex
from pathlib import Path

import hsc
from hsc.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
MODULES = ("cli", "colex", "construct", "hypercore", "parity", "search", "verify")


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
    assert len(hsc.__all__) <= 9


def readme_names():
    """The identifiers in the README's code: fenced blocks and `spans`."""
    prose = FENCED.sub("", README)
    spans = re.findall(r"`([^`]+)`", prose)
    code = [body for _, body in FENCED.findall(README)] + spans
    return set(re.findall(r"\w+", " ".join(code)))


def tracer_names():
    """The functions and Hypergraph methods that bench/tracer.py patches."""
    text = (ROOT / "bench" / "tracer.py").read_text()
    functions = re.findall(r'\("hsc\.\w+", "(\w+)"', text)
    return set(functions + re.findall(r'\("(\w+)", "hypercore\.', text))


def referenced(nodes):
    """Names and attributes read anywhere under the given nodes."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if not isinstance(getattr(sub, "ctx", None), ast.Load):
                continue
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def definitions(stmt):
    """(name, nodes) for a module-level function, or for a class: its bases,
    decorators, class-level statements and dunder methods under its own
    name, and each other method under the method's name."""
    if isinstance(stmt, ast.FunctionDef):
        return [(stmt.name, [stmt])]
    methods = [
        s
        for s in stmt.body
        if isinstance(s, ast.FunctionDef) and not s.name.startswith("__")
    ]
    own = [s for s in stmt.body if s not in methods] + stmt.bases + stmt.decorator_list
    return [(stmt.name, own)] + [(m.name, [m]) for m in methods]


def reached_names():
    """Every name reachable from what runs: module-level statements (which
    run on import and build the CLI's parser), the README's names and the
    tracer's.  A reached name adds the names that its definitions use."""
    uses, roots = {}, readme_names() | tracer_names()
    for path in sorted((ROOT / "src" / "hsc").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                for name, nodes in definitions(stmt):
                    uses.setdefault(name, set()).update(referenced(nodes) - {name})
            else:
                roots |= referenced([stmt])
    reached, frontier = set(), list(roots)
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(uses.get(name, ()))
    return reached


def test_every_exported_name_has_a_caller():
    reached = reached_names()
    unused = [
        f"hsc.{module}.{name}"
        for module in MODULES
        for name in importlib.import_module(f"hsc.{module}").__all__
        if name not in reached
    ]
    assert unused == []


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
