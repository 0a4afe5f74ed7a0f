"""Structural guard on the JSON text.

``serialize`` owns the JSON text: it parses every file and flag
(``read_json``) and writes every artifact (``json_text``), so it is the one
module in ``src/mapproc`` that imports ``json``.  The check reads each
module's syntax tree, so an import inside a function counts too.

Every invocation of ``test_cli.WIRE_FORMATS`` writes its JSON document as
one line and a newline, which ``json_text`` writes again byte for byte
from the parsed document; for ``bloch-export`` that is its manifest line.
"""

import ast
import json
from pathlib import Path

import pytest

import mapproc
from mapproc import serialize
from test_cli import DOCUMENTS, WIRE_FORMATS, label, run, write_json


def json_importers() -> set[str]:
    """The modules of the package whose syntax tree imports ``json`` or a submodule of it."""
    found = set()
    for path in Path(mapproc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "json" for name in names):
                found.add(path.stem)
    return found


def test_only_serialize_imports_json():
    assert json_importers() == {"serialize"}


@pytest.mark.parametrize("argv", [argv for argv, _ in WIRE_FORMATS],
                         ids=[label(argv) for argv, _ in WIRE_FORMATS])
def test_each_artifact_is_one_line_the_writer_writes_again(tmp_path, argv):
    paths = {name: write_json(tmp_path, f"{name}.json", doc) for name, doc in DOCUMENTS.items()}
    code, out = run(tmp_path, *[paths[arg[0]] if isinstance(arg, tuple) else arg for arg in argv])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    if argv[0] == "bloch-export":
        text = text.splitlines(keepends=True)[0].removeprefix("# manifest: ")
    assert text.endswith("\n") and text.count("\n") == 1
    assert serialize.json_text(json.loads(text)) == text
