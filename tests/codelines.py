"""Count the code lines of a directory's Python files.

    python tests/codelines.py src/mcastmech

Prints the number of lines of DIR/*.py that hold code: blank lines,
comments and docstrings are not counted, and a statement spread over
several lines counts each of them. It is the size yardstick that
simplification changes quote before and after. Not collected by pytest
(the name does not start with ``test_``).
"""

import ast
import io
import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER, tokenize.ENCODING}


def count(path: pathlib.Path) -> int:
    """The code lines of one file."""
    text, doc, lines = path.read_text(), set(), set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(l for l in range(tok.start[0], tok.end[0] + 1) if l not in doc)
    return len(lines)


if __name__ == "__main__":
    print(sum(count(p) for p in pathlib.Path(sys.argv[1]).glob("*.py")))
