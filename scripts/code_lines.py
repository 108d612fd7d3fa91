#!/usr/bin/env python3
"""Raw and code lines of each module of src/dnse_lab, of tests/ and of
scripts/, and their totals.

A raw line is a line of the file, as wc -l counts them.  A code line is
a line that is not blank, not a comment alone and not part of a
docstring (of the module, a class or a function).  A line that holds
code and a comment counts, and so does every line of a string that is not
a docstring.  Prints one line per file and each directory's total, and
writes the same counts to code_lines.json under --out.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

from dnse_lab import io as lab_io

ROOT = Path(__file__).resolve().parents[1]
DIRECTORIES = ("src/dnse_lab", "tests", "scripts")
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


def count_directory(directory: Path) -> dict:
    """{file name: {"raw": lines, "code": code lines}} of each .py file in
    directory, and their sums under "total"."""
    counts = {}
    for path in sorted(directory.glob("*.py")):
        source = path.read_bytes().decode()
        counts[path.name] = {"raw": source.count("\n"), "code": count_code_lines(source)}
    counts["total"] = {key: sum(c[key] for c in counts.values()) for key in ("raw", "code")}
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="out/code_lines")
    args = parser.parse_args()
    counts = {name: count_directory(ROOT / name) for name in DIRECTORIES}
    for name, files in counts.items():
        print(f"{name + '/':32s}   raw  code")
        for file, lines in files.items():
            print(f"  {file:30s} {lines['raw']:5d} {lines['code']:5d}")
    path = lab_io.write_json(Path(args.out) / "code_lines.json", counts)
    print(f"written to {path}")


if __name__ == "__main__":
    main()
