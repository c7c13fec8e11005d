"""The package's public name list, its lazy resolution and its re-exports."""

import os
import subprocess
import sys
from pathlib import Path

import phasewave


def test_all_names_resolve_once():
    names = phasewave.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(phasewave, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from phasewave import *", namespace)
    assert set(phasewave.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    # names resolve on first use, so a fresh package must list them unresolved
    src = str(Path(phasewave.__file__).resolve().parents[1])
    probe = "import phasewave; print(sorted(set(phasewave.__all__) - set(dir(phasewave))))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_wigner_reexports_the_field_classes():
    # bench/tracing.py wraps the codecs as attributes of wigner.WignerField and
    # counts wigner.wigner_parity's result through its values
    from phasewave import field, wigner

    assert wigner.WignerField is field.WignerField is phasewave.WignerField
    assert wigner.PhaseGrid is field.PhaseGrid is phasewave.PhaseGrid
