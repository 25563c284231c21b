import inspect

import pytest

from treerecon import cli, errors
from treerecon.cli import main

# the documented exit code of each error class; a class missing here fails the test
EXIT_CODES = {
    "TreeReconError": 5,
    "InvalidConfig": 5,
    "Diverged": 5,
    "MissingColors": 5,
    "SpecMismatch": 4,
    "MissingTarget": 4,
    "EmptyInput": 3,
    "EmptyCloud": 3,
    "EmptyFootprint": 3,
    "MalformedFile": 2,
    "MalformedPly": 2,
    "MalformedPfm": 2,
    "MalformedPpm": 2,
    "MalformedManifest": 2,
}
ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.TreeReconError)
]


@pytest.mark.parametrize("cls, code", [(c, EXIT_CODES[c.__name__]) for c in ERROR_CLASSES]
                         + [(OSError, 2)], ids=lambda v: getattr(v, "__name__", None))
def test_each_error_exits_with_its_documented_code(cls, code, monkeypatch, capsys):
    def raise_it(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_eval", raise_it)
    assert main(["eval", "--pred", "p.ply", "--gt", "g.ply"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: boom\n"
