#!/usr/bin/env python3
"""Line counts of Python modules, split into code, docstring, comment and blank lines.

Every line of a module falls in exactly one category:

* docstring: a line of a module, class or function docstring, blank
  lines inside it included;
* blank: any other line holding only whitespace;
* comment: any other line whose only tokens are a comment;
* code: every other line, i.e. the non-blank lines outside docstrings
  that are not comment-only (a multi-line string that is not a
  docstring counts as code).

Prints one row per module and a total row:

    python3 scripts/src_lines.py                       # every module of src/certquad
    python3 scripts/src_lines.py src/certquad/gauss.py src/certquad/norms.py

A directory argument counts every ``*.py`` file under it, in path order.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ("lines", "code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of a module and its classes and functions."""
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            rows.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return rows


def count(source: str) -> dict[str, int]:
    """The number of lines of ``source`` in each category, and in all."""
    docs = docstring_lines(ast.parse(source))
    code_rows, comment_rows = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment_rows.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code_rows.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    for row, line in enumerate(source.splitlines(), start=1):
        if row in docs:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif row in comment_rows and row not in code_rows:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["lines"] += 1
    return counts


def modules(paths: list[Path]) -> list[Path]:
    out = []
    for path in paths:
        out.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return out


def label(path: Path) -> str:
    """The path relative to the repository root when it lies inside it."""
    try:
        return str(path.resolve().relative_to(ROOT))
    except ValueError:
        return str(path)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "certquad"],
                        help="modules or directories (default: src/certquad)")
    args = parser.parse_args(argv)
    rows = [(label(path), count(path.read_text())) for path in modules(args.paths)]
    rows.append(("total", {c: sum(r[c] for _, r in rows) for c in COLUMNS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, counts in rows:
        print(f"{name:<{width}}" + "".join(f"{counts[c]:>10}" for c in COLUMNS))


if __name__ == "__main__":
    main()
