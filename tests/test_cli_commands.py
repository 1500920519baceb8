"""The ``repro`` command table: each command parses only the flags,
targets and positionals it takes, and every invocation the docs and CI
quote still parses.

Handlers are stubbed, so nothing here runs an experiment.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

from repro import cli
from repro.bench import reporting
from repro.primitives import kernels

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTED = [
    "README.md",
    *sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "docs").glob("*.md")),
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
]
# the invocation runs to the end of its code span, a comment or a `|`
# between alternatives (`runs list|show <id>`)
INVOCATION = re.compile(r"python -m repro\b([^`#|]*)")


@pytest.fixture
def dispatched(monkeypatch):
    """Stub every handler of the table; returns the (command, target,
    args) of each dispatch."""
    calls = []
    for cmd in cli.COMMANDS.values():
        for target in cmd.targets:
            monkeypatch.setitem(
                cmd.targets, target,
                lambda args, c=cmd.name, t=target: calls.append((c, t, args)) or 0,
            )
    # `--kernels` switches the process-wide backend before dispatch
    monkeypatch.setattr(kernels, "_active", kernels._active)
    return calls


FAIL_OPEN = [
    ["table1", "extra1", "--seeds", "1"],
    ["faults", "--faults", "crash"],
    ["serve", "--plans", "crash"],
    ["trace", "diff", "--keep", "3"],
    ["metrics", "--bench-ks", "4"],
    ["trace", "analyze", "stray"],
    ["runs", "list", "stray"],
    ["bench", "native", "stray"],
]


@pytest.mark.parametrize("argv", FAIL_OPEN, ids=" ".join)
def test_unread_flags_and_positionals_exit_2(argv, dispatched, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert dispatched == []


def test_target_may_follow_a_flag(dispatched):
    assert cli.main(["metrics", "--shard-k", "64", "fleet"]) == 0
    [(command, target, args)] = dispatched
    assert (command, target, args.shard_k) == ("metrics", "fleet", 64)


@pytest.mark.parametrize("argv, positionals_first", [
    (["runs", "trend", "--trend-tolerance", "0.1", "serve"],
     ["runs", "trend", "serve", "--trend-tolerance", "0.1"]),
    (["runs", "show", "--keep", "3", "abc"],
     ["runs", "show", "abc", "--keep", "3"]),
    (["runs", "trend", "serve", "--trend-min-points", "2", "fleet"],
     ["runs", "trend", "serve", "fleet", "--trend-min-points", "2"]),
    (["trace", "diff", "A.json", "--buckets", "4", "B.json"],
     ["trace", "diff", "A.json", "B.json", "--buckets", "4"]),
], ids=" ".join)
def test_flags_may_split_a_commands_positionals(argv, positionals_first,
                                                dispatched):
    assert cli.main(argv) == 0
    assert cli.main(positionals_first) == 0
    (cmd, target, split), (cmd0, target0, first) = dispatched
    assert (cmd, target, vars(split)) == (cmd0, target0, vars(first))


@pytest.mark.parametrize("argv", [
    ["runs", "trend", "--trend-tolerance", "0.1", "serve", "--bogus"],
    ["runs", "show", "--keep", "3", "abc", "--bogus", "1"],
    ["runs", "list", "--keep", "3", "stray"],
    ["trace", "analyze", "--buckets", "4", "stray"],
    ["serve", "--seeds", "1", "stray"],
], ids=" ".join)
def test_split_positionals_still_fail_closed(argv, dispatched, capsys):
    test_unread_flags_and_positionals_exit_2(argv, dispatched, capsys)


def test_unknown_target_after_a_flag_exits_2(dispatched, capsys):
    argv = ["runs", "--keep", "3", "bogus", "--trend-min-points", "2", "abc"]
    assert cli.main(argv) == 2
    assert "unknown runs target 'bogus'" in capsys.readouterr().err
    assert dispatched == []


def test_every_flag_is_taken_by_some_command():
    listed = {flag for cmd in cli.COMMANDS.values() for flag in cmd.flags}
    assert listed | {"--kernels"} == set(cli.FLAGS)


#: the modules whose functions are handed the parsed args: the CLI, the
#: shared bench runner and the bench lanes
ARGS_MODULES = {cli, reporting} | {
    inspect.getmodule(lane.run) for lane in cli.LANES.values()
}
_SYMBOLS: dict = {}


def _symbols(module):
    """Top-level ``name -> node`` of a module: defs and assigned values."""
    if module not in _SYMBOLS:
        table = {}
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                table[node.name] = node
            elif isinstance(node, ast.Assign):
                table.update((t.id, node.value) for t in node.targets
                             if isinstance(t, ast.Name))
        _SYMBOLS[module] = table
    return _SYMBOLS[module]


def _name_reads(module, name, seen):
    """``args.<dest>`` reads of a top-level name, followed into the
    :data:`ARGS_MODULES` it is imported from."""
    if name not in _symbols(module):
        obj = getattr(module, name, None)
        module = inspect.getmodule(obj) if inspect.isfunction(obj) else None
        if module not in ARGS_MODULES:
            return set()
        name = obj.__name__
    if (module, name) in seen or name not in _symbols(module):
        return set()
    seen.add((module, name))
    return _reads(module, _symbols(module)[name], seen)


def _reads(module, node, seen):
    """``args.<dest>`` reads of an AST node and every top-level function,
    table or lane it refers to (a constant-key lookup in a table literal,
    ``PAPER["table1"]``, follows only that entry)."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "args":
            return {node.attr}
        owner = getattr(module, node.value.id, None)
        if inspect.ismodule(owner) and owner in ARGS_MODULES:  # wall.LANE
            return _name_reads(owner, node.attr, seen)
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and isinstance(node.slice, ast.Constant)
            and isinstance(_symbols(module).get(node.value.id), ast.Dict)):
        table = _symbols(module)[node.value.id]
        keys = [key.value for key in table.keys]
        return _reads(module, table.values[keys.index(node.slice.value)], seen)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return _name_reads(module, node.id, seen)
    return set().union(*(_reads(module, child, seen)
                         for child in ast.iter_child_nodes(node)))


def _command_reads():
    """Command name -> the ``args`` attributes its target handlers read,
    from the ``Command(...)`` rows of ``COMMANDS`` in the source."""
    return {
        node.args[0].value: _reads(cli, node.args[3], set())
        for node in ast.walk(_symbols(cli)["COMMANDS"])
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "Command"
    }


COMMAND_READS = _command_reads()


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_command_takes_exactly_the_flags_its_handlers_read(name):
    """A flag a handler reads but its command does not take would be an
    AttributeError at run time; one taken but never read a dead setting."""
    cmd = cli.COMMANDS[name]
    reads = COMMAND_READS[name]
    assert ("extra" in reads) == bool(cmd.extra)
    assert reads - {"extra"} == {
        flag[2:].replace("-", "_") for flag in cmd.flags
    }


def test_all_runs_every_paper_row_in_order(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "render_table1", lambda: ran.append("table1") or "")
    monkeypatch.setattr(cli, "_run", lambda name, fn, title: ran.append(name))
    assert cli.main(["all"]) == 0
    assert ran == ["table1", "table2_insdel", "table2_util", "table2_knapsack",
                   "table2_astar", "fig6ab_capacity", "fig6c_blocks"]
    assert capsys.readouterr().out.count("workload scale") == 1


def _documented_invocations():
    """``(file:line, argv)`` of every ``python -m repro`` the docs and CI
    quote.  A code span that wraps, or a folded YAML line followed by
    ``--flag`` lines, is joined first; placeholders are skipped."""
    found = []
    for name in DOCUMENTED:
        lines = (ROOT / name).read_text().splitlines()
        for i, line in enumerate(lines):
            for match in INVOCATION.finditer(line):
                text, j = line[match.start():], i
                while j + 1 < len(lines) and (
                    (line[:match.start()].count("`") % 2 == 1 and "`" not in text)
                    or lines[j + 1].lstrip().startswith("--")
                ):
                    j += 1
                    text += " " + lines[j].strip()
                argv = INVOCATION.match(text).group(1).split()
                if not argv or argv == ["..."] or argv[0].startswith("<") or any(
                    arg.startswith("[") for arg in argv
                ):
                    continue
                found.append((f"{name}:{i + 1}", argv))
    return found


INVOCATIONS = _documented_invocations()


def test_docs_quote_invocations():
    assert len(INVOCATIONS) > 50
    commands = {argv[0] for _where, argv in INVOCATIONS}
    assert set(cli.COMMANDS) <= commands


@pytest.mark.parametrize("where, argv", INVOCATIONS,
                         ids=[f"{w} {' '.join(a)}" for w, a in INVOCATIONS])
def test_documented_invocation_parses(where, argv, dispatched, capsys):
    if argv == ["--version"]:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        return
    assert cli.main(argv) == 0, capsys.readouterr().err
    [(command, _target, _args)] = dispatched
    assert command == argv[0]
