"""README's `### Example` block runs and gives the results it states, and its
statement block lists every statement of the scenario language, so the
documented surface cannot be cut, or grow, by accident."""

import ast
from pathlib import Path

import pytest

from spinzero.measurement import ZeroProbabilityError
from spinzero.scenario import _STATEMENTS

README = Path(__file__).resolve().parent.parent / "README.md"


def _example_block() -> str:
    section = README.read_text(encoding="utf-8").split("### Example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_example_gives_its_stated_results():
    block = _example_block()
    # the three results the block states, in its own words
    assert "# {1.0: 0.0833..., -1.0: 0.0, 0.0: 0.9166...}" in block
    assert "# (1.0, 'refuted', 0.0833...)" in block
    assert "# raises ZeroProbabilityError" in block
    *statements, last = ast.parse(block).body
    namespace, values = {}, []
    for st in statements:
        if isinstance(st, ast.Expr):
            values.append(eval(compile(ast.Expression(st.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([st], []), "README", "exec"), namespace)
    distribution, protocol = values
    assert distribution == pytest.approx({1.0: 1 / 12, -1.0: 0.0, 0.0: 11 / 12}, abs=1e-12)
    assert protocol[:2] == (1.0, "refuted") and protocol[2] == pytest.approx(1 / 12, abs=1e-12)
    with pytest.raises(ZeroProbabilityError):
        exec(compile(ast.Module([last], []), "README", "exec"), namespace)


def test_readme_statement_block_lists_every_statement():
    section = README.read_text(encoding="utf-8").split("## Scenario files", 1)[1]
    block = section.split("```\n", 2)[1]
    assert [line.split()[0] for line in block.splitlines()] == list(_STATEMENTS)
