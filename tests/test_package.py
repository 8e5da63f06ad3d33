import subprocess
import sys
from pathlib import Path

import delay_lqgame

SRC = Path(__file__).resolve().parent.parent / "src"


def test_public_names_resolve_sorted_and_unique():
    names = delay_lqgame.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(delay_lqgame, name), name
    assert set(names) <= set(dir(delay_lqgame))


# The package modules that every command loads: the parser needs the
# presets' and schemes' names, and every command reads a config or writes
# a preset.
_BASE = {"delay_lqgame", "delay_lqgame.cli", "delay_lqgame.errors",
         "delay_lqgame.lin_ops", "delay_lqgame.model"}
_DESIGN = {"delay_lqgame.synthesis"}
_ROLLOUT = {"delay_lqgame.simulate"}
_SCHEMES = {"delay_lqgame.schemes"}


def _loaded_modules(code, *argv):
    """The package and numpy.random modules loaded after a fresh
    interpreter runs code with argv."""
    code += ("; import sys; print(*(m for m in sys.modules "
             "if m.split('.')[0] == 'delay_lqgame' "
             "or m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=SRC,
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_loads_no_numpy_random(tmp_path):
    # Only the deviation check draws random numbers, and no command runs
    # it.  Each command loads the layers it runs and no other: synthesize
    # the recursion and its design layer alone, simulate --gains no
    # recursion, and only the commands that run designs the schemes.
    assert _loaded_modules("import delay_lqgame.cli") == _BASE
    run = ("import sys; from delay_lqgame.cli import main; "
           "assert main(sys.argv[1:]) == 0")
    config, gains = tmp_path / "c.json", tmp_path / "g.json"
    commands = [
        (["preset", "--name", "generic", "--out", config], _BASE),
        (["discretize", "--config", config, "--out", tmp_path / "d.json"],
         _BASE),
        (["synthesize", "--config", config, "--out", gains],
         _BASE | _DESIGN),
        (["simulate", "--config", config, "--gains", gains,
          "--out", tmp_path / "r.csv"], _BASE | _ROLLOUT),
        (["simulate", "--config", config, "--out", tmp_path / "f.csv"],
         _BASE | _DESIGN | _ROLLOUT | _SCHEMES),
        (["sweep", "--config", config, "--out", tmp_path / "s.csv"],
         _BASE | _DESIGN | _ROLLOUT | _SCHEMES),
        (["compare", "--config", config, "--out", tmp_path / "t.csv"],
         _BASE | _DESIGN | _ROLLOUT | _SCHEMES),
    ]
    for argv, expected in commands:
        assert _loaded_modules(run, *map(str, argv)) == expected, argv[0]


def test_deviation_check_loads_on_first_use():
    loaded = _loaded_modules("from delay_lqgame import simulate; "
                             "simulate.nash_deviation_check")
    assert "delay_lqgame.deviation" in loaded
    # The re-export is bound in simulate once looked up, so a scan of the
    # module's names finds it.
    from delay_lqgame import deviation, simulate
    assert simulate.nash_deviation_check is deviation.nash_deviation_check
    assert vars(simulate)["nash_deviation_check"] is (
        deviation.nash_deviation_check)
    assert delay_lqgame.nash_deviation_check is deviation.nash_deviation_check
