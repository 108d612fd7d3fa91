#!/usr/bin/env python3
"""Code lines of each module of src/dnse_lab, and their total.

A code line is a line of a module that is not blank, not a comment alone
and not part of a docstring (of the module, a class or a function).  A
line that holds code and a comment counts, and so does every line of a
string that is not a docstring.  Prints one line per module and the
total, and writes the same counts to code_lines.json under --out.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

from dnse_lab import io as lab_io

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dnse_lab"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The code lines of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="out/code_lines")
    args = parser.parse_args()
    counts = {path.name: count_code_lines(path.read_text())
              for path in sorted(PACKAGE.glob("*.py"))}
    counts["total"] = sum(counts.values())
    for name, lines in counts.items():
        print(f"{name:16s} {lines:5d}")
    path = lab_io.write_json(Path(args.out) / "code_lines.json", counts)
    print(f"written to {path}")


if __name__ == "__main__":
    main()
