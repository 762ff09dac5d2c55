"""The library computes over ints and Fractions only: no module under
src/flatpoly may write a float literal, call float(), or use a math
function outside the integer ones."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "flatpoly"
INTEGER_MATH = {"lcm", "gcd", "comb", "isqrt", "prod"}


def float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float() call"
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "math" and node.attr not in INTEGER_MATH:
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield node.lineno, f"from math import {alias.name}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_floating_point(path):
    found = list(float_uses(ast.parse(path.read_text(), str(path))))
    assert not found, [f"{path.name}:{line}: {what}" for line, what in found]


def test_checker_sees_float_uses():
    code = ("import math\nx = 0.5\ny = float(2)\nz = math.atan2(1, 1)\n"
            "from math import sin, gcd\nw = math.comb(4, 2)\n")
    assert sorted(line for line, _ in float_uses(ast.parse(code))) == \
        [2, 3, 4, 5]
