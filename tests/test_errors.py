import inspect

import numpy as np
import pytest

from treerecon import cli, errors
from treerecon.cli import main
from treerecon.core import PointCloud
from treerecon.gradcheck import fd_gradient

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


# the library's own input checks, each with a call that fails it
INPUT_CHECKS = {
    "non-finite positions": lambda: PointCloud(positions=[[0.0, 0.0, np.nan]]),
    "colors of another length": lambda: PointCloud(np.zeros((3, 3)), colors=np.zeros((2, 3))),
    "classes of another length": lambda: PointCloud(np.zeros((3, 3)), classes=np.zeros(2)),
    "fd_gradient mask of another shape": lambda: fd_gradient(
        lambda stack: np.zeros(len(stack)), np.zeros((5, 3)), 1e-4, np.ones((5, 2), dtype=bool)),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_a_library_input_check_raises_an_error_of_the_table(case):
    with pytest.raises(errors.TreeReconError) as caught:
        INPUT_CHECKS[case]()
    assert caught.value.exit_code == 5
