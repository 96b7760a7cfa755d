#!/usr/bin/env python3
"""List the lines of hallmark that no report of tools/report_diff.py runs.

Run from anywhere:  python3 tools/unrun_lines.py TREE

TREE is a checkout (a directory holding src/hallmark) or a src
directory.  One child process puts TREE's src on PYTHONPATH, installs a
line tracer with sys.settrace before it imports hallmark, and then runs
every report_diff command through `hallmark.cli.main`, as report_diff's
own child does, on report_diff's copies of the a5 table and of the grid
manifest, with the same settings: the capped environment and the
lowered Hall budgets.  A line counts as executable when some code
object of its module, compiled from TREE's source, maps an instruction
to it (`co_lines()`).

Prints, for each module under hallmark, the number of executable lines
that no report ran, then each such line with its number and text, and
last the total.  A module that no report imports lists all its lines.
Tracing makes the reports several times slower than report_diff's run.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import report_diff


def _trace(package: str, directory: str) -> dict:
    """Child side: run every report under a line tracer; return
    {file name: set of line numbers run} for the files under package."""
    hits = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(package):
            return None
        lines = hits.setdefault(code.co_filename, set())
        lines.add(code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            report_diff._collect(directory)
    finally:
        sys.settrace(None)
    return hits


def _executable(path: str) -> set:
    """The lines that some code object compiled from path maps to."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv) -> int:
    if argv[:1] == ["--collect"]:
        hits = _trace(argv[1], argv[2])
        sys.stdout.write(json.dumps({f: sorted(lines) for f, lines in hits.items()}))
        return 0
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    package = os.path.join(report_diff._src_dir(argv[0]), "hallmark")
    with tempfile.TemporaryDirectory() as directory:
        report_diff._write_inputs(argv[0], directory)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--collect",
             package + os.sep, directory],
            env=dict(os.environ, PYTHONPATH=os.path.dirname(package)),
            capture_output=True, text=True, check=False,
        )
    if done.returncode:
        sys.exit("unrun_lines: tracing %s failed:\n%s" % (argv[0], done.stderr))
    hits = json.loads(done.stdout)
    total = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        unrun = sorted(_executable(path) - set(hits.get(path, ())))
        total += len(unrun)
        print("%s: %d" % (name, len(unrun)))
        with open(path) as fh:
            text = fh.read().splitlines()
        for line in unrun:
            print("  %4d  %s" % (line, text[line - 1].strip()))
    print("total: %d" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
