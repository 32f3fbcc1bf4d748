"""README's Library example runs as written.

The ```python block is executed one statement at a time.  A statement
that is a bare expression with a trailing ``# <literal>`` comment is an
example of a value: it must evaluate to that literal.  Any other comment
(``# default: fast policy``) is prose.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block() -> str:
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    return block


def _comments(source: str) -> dict[int, str]:
    """The comment text on each line that has one, by 1-based line number."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokens
        if tok.type == tokenize.COMMENT
    }


def _literal(text: str):
    try:
        return True, ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return False, None


def test_library_block_runs_and_shows_its_values():
    source = _python_block()
    comments = _comments(source)
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        is_value, expected = _literal(comments.get(node.end_lineno, ""))
        if isinstance(node, ast.Expr) and is_value:
            assert eval(code, namespace) == expected, code
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked >= 5
