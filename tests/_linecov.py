"""Lines of the package that a test run never runs, with the standard library only.

`python -m pytest --linecov` traces every frame of the opinionminer
modules (sys.settrace, and threading.settrace for threads started later)
and, when the run ends, prints each line inside a function that holds an
instruction and never ran, in blocks of such lines with no line that ran
between them. tests/linecov_allow.txt names the blocks a run may leave,
each with its reason; any other never-run block, or an entry that names
no block, fails the run. Code that only a subprocess runs is not seen.
Module and class bodies are not counted; the package must not be imported
before the option's hook starts the tracer, or the functions that its
module bodies call read as never run.

The tracer writes into one preallocated bytearray a module, so the traced
code allocates nothing on its behalf that tracemalloc's peaks would see.
"""

import importlib.util
import inspect
import pkgutil
import sys
import threading
import types
from pathlib import Path

import pytest

ALLOWLIST = Path(__file__).with_name("linecov_allow.txt")


def _function_lines(path):
    """{line: qualified name of its function} for every line of a source file
    that holds an instruction of a function body."""
    code = compile(Path(path).read_text(encoding="utf-8"), path, "exec")
    lines, pending = {}, [code]
    while pending:
        co = pending.pop()
        pending.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
        if co.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            name = getattr(co, "co_qualname", co.co_name)
            lines.update((line, name) for _, _, line in co.co_lines() if line is not None)
    return lines


class LineTracer:
    """Marks each line of the given source files that runs between start and stop."""

    def __init__(self, paths):
        self.hits = {path: bytearray(len(Path(path).read_bytes().splitlines()) + 2)
                     for path in paths}
        hits = self.hits

        def line(frame, event, arg):
            hits[frame.f_code.co_filename][frame.f_lineno] = 1
            return line

        def call(frame, event, arg):
            marks = hits.get(frame.f_code.co_filename)
            if marks is None:
                return None
            marks[frame.f_code.co_firstlineno] = 1
            return line

        self._call = call

    def start(self):
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def never_run(self):
        """[(path, function, [line numbers])]: the runs of never-run lines in
        each file, each named by the function of its first line."""
        blocks = []
        for path, marks in sorted(self.hits.items()):
            lines = _function_lines(path)
            block = None
            for n in sorted(lines):
                if marks[n]:
                    block = None
                elif block:
                    block[2].append(n)
                else:
                    block = (path, lines[n], [n])
                    blocks.append(block)
        return blocks


def read_allowlist(path=ALLOWLIST):
    """[(entry, reason)]: each entry is "<file> <function>: <start of the
    block's first line>", and the indented line under it is its reason."""
    entries = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        if raw[0].isspace():
            if not entries or entries[-1][1]:
                raise ValueError(f"{path.name}: a reason with no entry: {raw.strip()!r}")
            entries[-1] = (entries[-1][0], raw.strip())
        else:
            entries.append((raw.strip(), None))
    for entry, reason in entries:
        if not reason:
            raise ValueError(f"{path.name}: {entry!r} gives no reason")
    return entries


def report(blocks, allowed):
    """(lines to print, whether the run passes) for never-run blocks against
    the allowlist's entries."""
    out, used, failed = [], set(), False
    for path, function, lines in blocks:
        source = Path(path).read_text(encoding="utf-8").splitlines()
        key = f"{Path(path).name} {function}: {source[lines[0] - 1].strip()}"
        entry = next((e for e, _ in allowed if key.startswith(e)), None)
        if entry is None:
            failed = True
        else:
            used.add(entry)
        out.append(f"{'allowed' if entry else 'NEVER RUN'} {Path(path).name} {function}")
        out.extend(f"    {n}: {source[n - 1].strip()}" for n in lines)
    for entry, _ in allowed:
        if entry not in used:
            failed = True
            out.append(f"STALE allowlist entry, no never-run block starts so: {entry}")
    return out, not failed


def pytest_addoption(parser):
    parser.addoption("--linecov", action="store_true",
                     help="trace src/opinionminer and fail on a never-run line that "
                          "tests/linecov_allow.txt does not name")


def pytest_configure(config):
    if not config.getoption("linecov"):
        return
    # found, not imported: tracing starts before the package's import runs
    # the functions its module bodies call
    package = Path(importlib.util.find_spec("opinionminer").origin).parent
    config._linecov = LineTracer([str(package / f"{m.name}.py")
                                  for m in pkgutil.iter_modules([str(package)])] +
                                 [str(package / "__init__.py")])
    config._linecov.start()


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session, exitstatus):
    tracer = getattr(session.config, "_linecov", None)
    if tracer is None:
        return
    tracer.stop()
    lines, ok = report(tracer.never_run(), read_allowlist())
    session.config._linecov_report = lines
    if not ok and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    lines = getattr(config, "_linecov_report", None)
    if lines is None:
        return
    terminalreporter.section("never-run lines of src/opinionminer")
    for line in lines or ["none"]:
        terminalreporter.write_line(line)
