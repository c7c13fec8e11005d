"""Every benchmark invocation, at its tiny size, exits as its workload declares.

The benchmark counts an invocation whose exit code differs from the declared
one as a failed operation; running them here makes that a tier-1 failure.
``bench/workloads.py`` is loaded from its source, unchanged and without
writing bytecode, as ``test_tracing.py`` loads ``bench/tracing.py``.
"""

import sys
import types
from pathlib import Path

import pytest

from phasewave import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py as a module; its dataclass looks its module up in
    sys.modules while the class is built, so it is registered until then."""
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS)
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.parametrize("name", ["phase-routes", "zones-belts", "io-roundtrip"])
def test_every_invocation_exits_as_declared(workloads, name, tmp_path, monkeypatch, capsys):
    assert name in workloads.WORKLOADS
    # in order, in one directory: the validate steps read what earlier steps wrote
    monkeypatch.chdir(tmp_path)
    invocations = workloads.generate(name, 1, tiny=True)
    assert invocations
    got, declared = [], []
    for inv in invocations:
        got.append((inv.name, cli.main(list(inv.argv))))
        declared.append((inv.name, inv.exit_code))
        capsys.readouterr()
    assert got == declared
