#!/usr/bin/env python3
"""List the code of `src/orefields` that no CLI argv of the benchmark or of
CI reaches.

Every argv of the three perfbench workloads (verify-grid, pdo-precision and
orbits-classify) at each --seeds value, and every argv of the CI step
"Large characteristics and radicands finish or exit 2"
(`large_inputs.LARGE_INPUTS`), runs in this process through
`orefields.cli.main(argv)` under a line tracer (`sys.settrace`) that
records the lines each function of `src/orefields` executes.  Then, per
module, it prints the functions that no argv enters and, inside the
functions that some argv enters, each run of executable lines that none
executes (a branch not taken), with their line counts.  A decorated
function is matched by its first decorator's line, which is where its
code object starts.  The output is a survey: the exit code is 0 whatever
it lists.  Standard library only.

    PYTHONPATH=src python scripts/probe_reach.py [--seeds 1,7,19]
"""

import argparse
import ast
import contextlib
import io
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from large_inputs import LARGE_INPUTS  # noqa: E402


def all_argv(seeds):
    """The workload argv at each seed, workloads in name order, then the
    large inputs."""
    return ([op["argv"] for seed in seeds for name in sorted(WORKLOADS)
             for op in WORKLOADS[name](seed)]
            + [argv for argv, _, _ in LARGE_INPUTS])


def run(main, argv):
    """main(argv) with its output discarded; the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def traced(src, argvs):
    """{(file, first line, name): the lines executed} over the runs of
    argvs, for the code objects of the files under src."""
    hit = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(src):
            return None
        hit.setdefault(code, set())
        return local

    sys.settrace(tracer)
    try:
        from orefields.cli import main
        codes = [run(main, argv) for argv in argvs]
    finally:
        sys.settrace(None)
    out = {}
    for code, lines in hit.items():
        out.setdefault((code.co_filename, code.co_firstlineno, code.co_name), set()).update(lines)
    return out, codes


def functions(path):
    """(qualified name, first line, last line, code object) for each def in
    path, the first line being its first decorator's."""
    with open(path) as fh:
        source = fh.read()
    tree = ast.parse(source)
    codes = {}

    def walk(code):
        for c in code.co_consts:
            if hasattr(c, "co_code"):
                codes[(c.co_firstlineno, c.co_name)] = c
                walk(c)
    walk(compile(source, path, "exec"))

    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out.append((name, first, child.end_lineno, codes.get((first, child.name))))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
    visit(tree, "")
    return out


def unreached_runs(code, lines):
    """The runs (first, last) of executable lines of code, not of the code
    nested in it, that are not in lines; its first line is left out."""
    executable = sorted({ln for _, _, ln in code.co_lines()
                         if ln is not None and ln != code.co_firstlineno})
    runs, start, prev = [], None, None
    for ln in executable:
        if ln in lines:
            if start is not None:
                runs.append((start, prev))
            start = None
        elif start is None:
            start = ln
        prev = ln
    if start is not None:
        runs.append((start, prev))
    return runs


def report(src, hit):
    total_fn = total_br = 0
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(src, name)
        fns = functions(path)
        dead, branches = [], []
        for qual, first, last, code in fns:
            lines = hit.get((path, first, qual.rsplit(".", 1)[-1]))
            if lines is None:
                dead.append((qual, first, last))
            elif code is not None:
                branches += [(qual, a, b) for a, b in unreached_runs(code, lines)]
        # a function nested in one that is never entered is counted with it
        outer = [(f, l) for _, f, l in dead]
        dead = [d for d in dead if not any(f < d[1] and d[2] <= l for f, l in outer)]
        n_fn = sum(b - a + 1 for _, a, b in dead)
        n_br = sum(b - a + 1 for _, a, b in branches)
        total_fn += n_fn
        total_br += n_br
        print(f"{name}: {len(dead)} of {len(fns)} functions not entered ({n_fn} lines); "
              f"{len(branches)} runs of lines not executed in entered functions ({n_br} lines)")
        for qual, a, b in dead:
            print(f"  function {qual:44} lines {a}-{b} ({b - a + 1})")
        for qual, a, b in branches:
            print(f"  branch   {qual:44} lines {a}-{b} ({b - a + 1})")
    print(f"total: {total_fn} lines in functions not entered, "
          f"{total_br} lines of branches not taken")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,7,19")
    args = parser.parse_args()
    argvs = all_argv([int(s) for s in args.seeds.split(",")])
    import orefields
    src = os.path.dirname(orefields.__file__)
    start = time.perf_counter()
    hit, codes = traced(src, argvs)
    exits = {c: codes.count(c) for c in sorted(set(codes), key=str)}
    print(f"{len(argvs)} argv in {time.perf_counter() - start:.1f} s under the tracer; "
          f"exit codes {exits}")
    report(src, hit)


if __name__ == "__main__":
    main()
