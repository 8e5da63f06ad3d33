import subprocess
import sys
from pathlib import Path

import delay_lqgame


def test_public_names_resolve_sorted_and_unique():
    names = delay_lqgame.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(delay_lqgame, name), name


def test_cli_import_loads_no_numpy_random():
    # Only the deviation check draws random numbers; it imports
    # numpy.random on first use, so CLI processes never pay for loading it.
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, delay_lqgame.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'numpy.random' or m.startswith('numpy.random.')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
