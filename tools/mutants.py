"""Operator mutants of one module, and the ones a set of tests lets survive.

    python tools/mutants.py src/biphoton/states.py tests/test_states.py tests

Each mutant flips one operator of the module: < and <=, > and >=, == and !=,
+ and -, * and /, in binary operations, augmented assignments and
comparisons.  For each mutant the module file is rewritten in place, pytest
runs the given test paths with -x (Hypothesis seeded, with an empty example
database), and the file is restored.  A mutant is killed when pytest fails or
runs longer than three times the unmutated suite.  The survivors are printed
in source order, one a line:

    states.py:172:13  oam_ring.build  < -> <=  if l < 0:

The module is rewritten in place, so run this in a throwaway copy of the
repository.  A directory stands for its test_*.py files, and each test file
runs once, in the order given: list the module's own test file first, and
most mutants fail early.  --function NAME (repeatable) keeps only the
mutants inside the function or class NAME, as the survivor lines name it
(`oam_ring.build` or the whole `oam_ring`).  Uses only the standard library;
it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "*": "/", "/": "*",
         "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*="}


@dataclass(frozen=True)
class Mutant:
    line: int  # 1-based
    col: int  # 0-based, in characters
    old: str
    new: str
    function: str


class _Finder(ast.NodeVisitor):
    """Every flippable operator as (line, col, symbol, enclosing function),
    located among the source's OP tokens between its two operands."""

    def __init__(self, source: str):
        self.lines = source.splitlines()
        self.ops = {(tok.start, tok.string) for tok in
                    tokenize.generate_tokens(io.StringIO(source).readline)
                    if tok.type == tokenize.OP and tok.string in FLIPS}
        self.found: list[Mutant] = []
        self._scope: list[str] = []

    def _char_col(self, line: int, byte_col: int) -> int:
        return len(self.lines[line - 1].encode()[:byte_col].decode())

    def _between(self, left: ast.AST, right: ast.AST) -> None:
        start = (left.end_lineno, self._char_col(left.end_lineno, left.end_col_offset))
        stop = (right.lineno, self._char_col(right.lineno, right.col_offset))
        tokens = sorted((pos, s) for pos, s in self.ops if start <= pos < stop)
        if tokens:  # none inside an f-string, which tokenizes as one string
            (line, col), old = tokens[0]
            self.found.append(Mutant(line, col, old, FLIPS[old],
                                     ".".join(self._scope) or "<module>"))

    def _scoped(self, node: ast.AST) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            self._between(node.left, node.right)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            self._between(node.target, node.value)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)):
                self._between(left, right)
        self.generic_visit(node)


def find_mutants(source: str) -> list[Mutant]:
    finder = _Finder(source)
    finder.visit(ast.parse(source))
    return sorted(finder.found, key=lambda m: (m.line, m.col))


def apply(source: str, mutant: Mutant) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[mutant.line - 1]
    assert text[mutant.col:mutant.col + len(mutant.old)] == mutant.old
    lines[mutant.line - 1] = text[:mutant.col] + mutant.new + text[mutant.col + len(mutant.old):]
    return "".join(lines)


def expand_tests(paths: list[str]) -> list[str]:
    """The test files of the given paths, each once, in the order given (pytest
    itself puts a file named before its directory among the directory's)."""
    files: list[Path] = []
    for path in map(Path, paths):
        for file in sorted(path.rglob("test_*.py")) if path.is_dir() else [path]:
            if file not in files:
                files.append(file)
    return [str(file) for file in files]


def run_tests(tests: list[str], timeout: float | None) -> tuple[bool, float]:
    """(passed, seconds) of one pytest -x run; a timeout counts as a failure."""
    with tempfile.TemporaryDirectory() as storage:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   HYPOTHESIS_STORAGE_DIRECTORY=storage)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--hypothesis-seed=0", *tests]
        start = time.perf_counter()
        try:
            result = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL, timeout=timeout)
        except subprocess.TimeoutExpired:
            return False, time.perf_counter() - start
        return result.returncode == 0, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", type=Path, help="the source file to mutate")
    parser.add_argument("tests", nargs="+", help="pytest paths, the module's own tests first")
    parser.add_argument("--function", action="append", default=[], metavar="NAME",
                        help="mutate only inside this function or class (repeatable)")
    args = parser.parse_args(argv)
    tests = expand_tests(args.tests)
    signal.signal(signal.SIGTERM, signal.default_int_handler)  # restore the module
    original = args.module.read_bytes()
    stat = args.module.stat()
    source = original.decode()
    mutants = [m for m in find_mutants(source) if not args.function
               or any(m.function == name or m.function.startswith(name + ".")
                      for name in args.function)]
    passed, seconds = run_tests(tests, None)
    if not passed:
        print("the tests fail on the unmutated module", file=sys.stderr)
        return 2
    survivors = []
    try:
        for i, mutant in enumerate(mutants, 1):
            args.module.write_text(apply(source, mutant))
            # A source time no cached bytecode was compiled for: the file is
            # recompiled even where the mutant has the original's size.
            os.utime(args.module, ns=(stat.st_atime_ns, stat.st_mtime_ns + 2 * 10 ** 9))
            passed, took = run_tests(tests, 3.0 * seconds + 10.0)
            print(f"[{i}/{len(mutants)}] {mutant.line}:{mutant.col} {mutant.old} -> "
                  f"{mutant.new} {'survived' if passed else 'killed'} in {took:.1f} s",
                  file=sys.stderr, flush=True)
            if passed:
                survivors.append(mutant)
    finally:
        args.module.write_bytes(original)
        os.utime(args.module, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    lines = source.splitlines()
    for m in survivors:
        print(f"{args.module.name}:{m.line}:{m.col}  {m.function}  {m.old} -> {m.new}  "
              f"{lines[m.line - 1].strip()}")
    print(f"{len(survivors)} of {len(mutants)} mutants survive", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
