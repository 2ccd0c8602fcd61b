"""Line counts of a package's modules, split by kind.

    python3 tools/src_lines.py [DIRECTORY]

For each ``*.py`` module of DIRECTORY (default ``src/switchsde`` beside this
directory), in name order, prints its total lines and how many of them are
code, docstring, comment and blank lines, then the totals.  A docstring line
lies inside a module, class or function docstring; a comment line holds only
a comment; a blank line holds only whitespace; code is every other line.
Counting code lines apart shows whether a change that deletes lines deleted
code or only text about it.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parents[1] / "src" / "switchsde"
KINDS = ("total", "code", "docstring", "comment", "blank")


def count(source: str) -> dict[str, int]:
    """The line count of ``source`` by kind, keyed by ``KINDS``."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code = set()  # lines that hold a token other than a comment
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    counts["total"] = len(lines)
    for number, line in enumerate(lines, 1):
        if number in docstring:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif number in code:
            counts["code"] += 1
        else:
            counts["comment"] += 1
    return counts


def main(argv=None) -> dict[str, int]:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=Path, default=DEFAULT)
    args = parser.parse_args(argv)
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in KINDS))
    for path in sorted(args.directory.glob("*.py")):
        counts = count(path.read_text())
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[kind]:>10}" for kind in KINDS))
    print(f"{'total':<16}" + "".join(f"{totals[kind]:>10}" for kind in KINDS))
    return totals


if __name__ == "__main__":
    main()
