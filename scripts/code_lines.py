"""Print the lines and code lines of each module of src/qcorr, and their totals,
then the totals of the tests/ and perfbench/ trees of the same checkout.

A code line is a line that is not blank, not a comment and not part of a
docstring (the string that opens a module, class or function). Run from
anywhere: python scripts/code_lines.py [DIRECTORY], DIRECTORY defaulting to
the package next to this script; tests/ and perfbench/ are read two levels
above DIRECTORY.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source text."""
    lines = source.splitlines()
    skip = {n for n, line in enumerate(lines, 1) if not line.strip()}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT and not token.line[:token.start[1]].strip():
            skip.add(token.start[0])
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return len(lines), len(lines) - len(skip)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "qcorr"
    total_lines = total_code = 0
    print(f"{'module':<20}{'lines':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path.read_text())
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:<20}{lines:>8}{code:>8}")
    print(f"{'total':<20}{total_lines:>8}{total_code:>8}")
    checkout = root.resolve().parents[1]
    for tree in ("tests", "perfbench"):
        counts = [count(path.read_text()) for path in sorted((checkout / tree).glob("*.py"))]
        print(f"{tree + '/ total':<20}{sum(c[0] for c in counts):>8}{sum(c[1] for c in counts):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
