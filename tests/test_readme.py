"""README's CLI and Library examples run as written.

Each ``multirank ...`` command in the ```sh block under "CLI" runs as
``python -m multirank ...`` from the repository root, and its stdout
must be the ``# `` lines under it.

The ```python block is executed one statement at a time.  A statement
that is a bare expression with a trailing ``# <literal>`` comment is an
example of a value: it must evaluate to that literal.  Any other comment
(``# default: fast policy``) is prose.
"""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"


def _cli_examples() -> list[tuple[list[str], str]]:
    """(arguments, stdout) of each command in the CLI section's ```sh block."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.M | re.S)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("multirank "):
            examples.append((line.split()[1:], ""))
        elif line.startswith("# "):
            args, out = examples[-1]
            examples[-1] = args, out + line[2:] + "\n"
    return examples


def test_cli_block_prints_what_it_shows():
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    examples = _cli_examples()
    for args, expected in examples:
        done = subprocess.run(
            [sys.executable, "-m", "multirank", *args],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, ""), args
    assert len(examples) >= 2


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
