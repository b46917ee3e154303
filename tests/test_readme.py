"""The README's library example runs as printed and shows what its comments
say, so that a renamed or removed public name cannot break it unnoticed."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example():
    # run the block statement by statement, keeping the value of each bare
    # expression, which the README shows in a comment
    ns, shown = {}, []
    for stmt in ast.parse(_library_example()).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), ns)
    assert [h.n for h in ns["hits"]] == [9, 165]
    assert all(h.structure.ok for h in ns["hits"])
    assert shown == [
        288,                                            # unitary_sigma(f)
        ((3, 1, 2, 0), (5, 1, 1, 1), (11, 1, 2, 1)),    # components
        True,                                           # rec.computed.upper < 2
        [5, 7, 11, 13],                                 # the q scan
    ]
