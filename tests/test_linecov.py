import sys
import threading

from _linecov import LineTracer, read_allowlist, report

SOURCE = """\
def f(x):
    if x:
        return 1
    return 2
"""


def test_a_never_run_line_fails_the_run_unless_the_allowlist_names_it(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE, encoding="utf-8")
    namespace = {}
    exec(compile(SOURCE, str(path), "exec"), namespace)
    tracer = LineTracer([str(path)])
    # under --linecov the suite's own tracer is running: put it back after
    outer, outer_threads = sys.gettrace(), threading.gettrace()
    tracer.start()
    try:
        namespace["f"](0)
    finally:
        tracer.stop()
        sys.settrace(outer)
        threading.settrace(outer_threads)
    blocks = tracer.never_run()
    assert blocks == [(str(path), "f", [3])]
    assert report(blocks, []) == (["NEVER RUN mod.py f", "    3: return 1"], False)
    assert report(blocks, [("mod.py f: return", "why")])[1]
    # an entry that names no never-run block fails the run too
    assert not report([], [("mod.py f: return", "why")])[1]


def test_the_allowlist_parses_and_gives_each_entry_a_reason():
    # so a malformed entry fails tier-1, not only the --linecov run
    assert all(reason for _, reason in read_allowlist())
