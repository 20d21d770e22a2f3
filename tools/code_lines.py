"""Count the code lines of the package's modules.

A code line holds a token other than a comment or a line break and is not
part of a module, class or function docstring.  Prints each module's code
lines and total lines, then the sums.  Run from the repository root:

    python tools/code_lines.py [DIR]

DIR defaults to src/trigiso.  The count is a measure, not a gate.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> tuple[int, int]:
    """(code lines, total lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    with path.open("rb") as f:
        lines = {
            row
            for tok in tokenize.tokenize(f.readline)
            if tok.type not in _NOT_CODE
            for row in range(tok.start[0], tok.end[0] + 1)
        }
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines), len(text.splitlines())


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/trigiso")
    code = total = 0
    for path in sorted(root.glob("*.py")):
        c, t = code_lines(path)
        code, total = code + c, total + t
        print(f"{path.name:16} {c:6} {t:6}")
    print(f"{'total':16} {code:6} {total:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
