#!/usr/bin/env python3
"""Size of the package source: code lines and parameters with a default.

A code line is a line that holds part of a token other than a comment, a line
break or an indent; lines of module, class and function docstrings (found with
``ast``) do not count.  A parameter with a default is a positional or
keyword-only parameter of a ``def`` that has a default value.  The script only
reads the files; it prints one line per module and a total line.

    python3 scripts/code_lines.py            # the modules of src/pxdg
    python3 scripts/code_lines.py DIR ...    # the .py files under each DIR
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def _defaulted_params(tree):
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def count(path):
    """(code lines, parameters with a default) of one source file."""
    with open(path, "rb") as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(tree)), _defaulted_params(tree)


def main(dirs):
    paths = sorted(os.path.join(d, name) for top in dirs
                   for d, _, names in os.walk(top) for name in names if name.endswith(".py"))
    total_lines = total_params = 0
    for path in paths:
        lines, params = count(path)
        total_lines += lines
        total_params += params
        print(f"{os.path.relpath(path):40s} {lines:6d} code lines {params:4d} defaulted params")
    print(f"{'total':40s} {total_lines:6d} code lines {total_params:4d} defaulted params")


if __name__ == "__main__":
    main(sys.argv[1:] or [os.path.join(ROOT, "src", "pxdg")])
