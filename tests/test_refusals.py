"""One place per refusal: no message literal is raised from two places in ``mapproc``.

A refusal written twice can drift apart, one copy fixed and the other not.
This scans the syntax tree of every module for ``raise E("...")`` and
``raise E(f"...")`` and pins that each message is raised once.
"""

import ast
from collections import defaultdict
from pathlib import Path

import mapproc

SRC = Path(mapproc.__file__).parent


def raised_messages(tree):
    """(line, message source) of each raise whose first argument is a string or f-string literal."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            arg = node.exc.args[0]
            if isinstance(arg, ast.JoinedStr) or (
                isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            ):
                found.append((node.lineno, ast.unparse(arg)))
    return found


def test_no_refusal_is_raised_from_two_places():
    places = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for line, message in raised_messages(ast.parse(path.read_text(encoding="utf-8"))):
            places[message].append(f"{path.name}:{line}")
    twice = {message: where for message, where in places.items() if len(where) > 1}
    assert not twice, twice


def test_the_scan_sees_the_refusals():
    # a scan that finds nothing would pass vacuously
    tree = ast.parse((SRC / "processor.py").read_text(encoding="utf-8"))
    messages = {message for _, message in raised_messages(tree)}
    assert "'partition does not cover the program outcomes'" in messages
    assert "f'element {i} is not Hermitian'" in messages
