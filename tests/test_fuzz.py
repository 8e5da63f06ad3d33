"""Property-based fuzzing of the input boundary.

The rule: any input either parses or raises a DelayGameError subclass, and
the CLI answers any input file with exit code 0, 1 or 2, never with an
uncaught exception.  Inputs are raw text, arbitrary JSON values, and valid
documents with one to three fields replaced or deleted.  Examples are
derandomized, so every run draws the same inputs.
"""

import contextlib
import copy
import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delay_lqgame import (
    ContinuousPlant,
    DelayBoundError,
    DelayGameError,
    DiscretePlant,
    ExperimentConfig,
    GainSchedule,
    GameWeights,
    NumericalError,
    SchemaError,
    Trajectory,
    ValidationError,
    compare_schemes,
    config_to_dict,
    discretize,
    dump_config,
    evaluate_costs,
    load_config,
    nash_deviation_check,
    preset_generic,
    preset_lfc,
    read_trajectory_csv,
    rollout,
    run_scheme,
    sweep_delays,
    synthesize,
    synthesize_batch,
    synthesize_for_scheme,
    write_trajectory_csv,
)
from delay_lqgame import model, schemes, synthesis
from delay_lqgame.cli import main, schedule_from_dict, schedule_to_dict

fuzz = settings(derandomize=True, deadline=None, database=None,
                max_examples=50)

# Past float range, and the largest, smallest and negative extremes.
EXTREMES = st.sampled_from([10**400, -10**400, 1.7976931348623157e308,
                            -1e308, 5e-324, 1e300])
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | EXTREMES | st.text(max_size=8))
JSON = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=12)


def _small(config):
    w = config.weights
    return replace(config, weights=GameWeights(w.Q, w.QN, w.R, horizon=3),
                   x0=np.array(config.x0))


GENERIC = _small(preset_generic())
CONFIG_DOCS = [config_to_dict(GENERIC), config_to_dict(_small(preset_lfc()))]
SCHEDULE = synthesize_for_scheme(GENERIC, "proposed")
GAINS_DOC = schedule_to_dict(SCHEDULE, GENERIC.plant)
DISCRETE = discretize(GENERIC.plant)
TRAJECTORY = rollout(DISCRETE, SCHEDULE, GENERIC.x0, GENERIC.weights)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


@st.composite
def mutated(draw, base):
    """A copy of a JSON document with 1-3 values replaced or deleted."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return draw(JSON)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(SCALARS | JSON)
        else:
            del parent[path[-1]]
    return doc


def _parses_or_raises_package_error(call, *args):
    try:
        call(*args)
    except DelayGameError:
        return False
    return True


def _config_is_finite_or_rejected(text):
    """load_config either raises a package error or returns only finite
    numbers: a value that overflows must not slip through validation."""
    try:
        config = load_config(text)
    except DelayGameError:
        return
    plant, w = config.plant, config.weights
    for array in (plant.A, *plant.B, plant.delays, [plant.h], config.x0,
                  *w.Q, *w.QN, *w.R):
        assert np.all(np.isfinite(array))


def _with(doc, *path_and_value):
    """Copy of a document with one value replaced at a key path."""
    *path, key, value = path_and_value
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path:
        parent = parent[step]
    parent[key] = value
    return json.dumps(doc)


def _cli(argv):
    """Exit code and stderr of an in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestLoadConfig:
    @fuzz
    @given(st.text())
    @example("[" * 5000)  # nested past the recursion limit
    @example('{"plant": ' + "1" * 5000 + "}")  # past int parsing's limit
    def test_any_text(self, text):
        _config_is_finite_or_rejected(text)

    @fuzz
    @given(JSON)
    def test_any_json_value(self, doc):
        _config_is_finite_or_rejected(json.dumps(doc))

    @fuzz
    @given(st.sampled_from(CONFIG_DOCS).flatmap(mutated).map(json.dumps))
    @example(_with(CONFIG_DOCS[0], "plant", "h", 10**400))
    @example(_with(CONFIG_DOCS[0], "weights", "Q", 0,
                   [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]))
    @example(_with(CONFIG_DOCS[1], "weights", "Q", 0, [[5e307] * 9] * 9))
    def test_mutated_config(self, text):
        _config_is_finite_or_rejected(text)

    def test_unmutated_configs_parse(self):
        for doc in CONFIG_DOCS:
            assert _parses_or_raises_package_error(load_config,
                                                   json.dumps(doc))


class TestScheduleFromDict:
    @fuzz
    @given(JSON)
    def test_any_json_value(self, doc):
        _parses_or_raises_package_error(schedule_from_dict, doc,
                                        GENERIC.plant, GENERIC.weights.horizon)

    @fuzz
    @given(mutated(GAINS_DOC))
    @example(dict(GAINS_DOC, A_coef=[[[[10**400, 0.0]]]]))
    def test_mutated_gains(self, doc):
        _parses_or_raises_package_error(schedule_from_dict, doc,
                                        GENERIC.plant, GENERIC.weights.horizon)


class TestDumpJson:
    """dump_json maps a document it cannot write to NumericalError."""

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_float_raises(self, value):
        doc = copy.deepcopy(GAINS_DOC)
        doc["A_coef"][1][0][0][1] = value
        with pytest.raises(NumericalError, match="cannot write JSON"):
            model.dump_json(doc)

    def test_cyclic_document_raises(self):
        doc = {"a": [1.0]}
        doc["b"] = doc
        with pytest.raises(NumericalError, match="Circular reference"):
            model.dump_json(doc)


# numpy scalars as a caller may pass them, finite or not.
NUMPY_SCALARS = (st.floats().map(np.float64)
                 | st.floats(width=32).map(np.float32)
                 | st.integers(-2**63, 2**63 - 1).map(np.int64)
                 | st.booleans().map(np.bool_)
                 | st.text(max_size=4).map(np.str_))
ARGUMENTS = st.recursive(
    SCALARS | NUMPY_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=12)


def _constructor_args(config):
    """{constructor: its keyword arguments} that rebuild config's parts."""
    plant, w = config.plant, config.weights
    return {
        ContinuousPlant: dict(A=plant.A, B=plant.B, delays=plant.delays,
                              h=plant.h),
        DiscretePlant: dict(Phi=DISCRETE.Phi, Gamma0=DISCRETE.Gamma0,
                            Gamma1=DISCRETE.Gamma1),
        GameWeights: dict(Q=w.Q, QN=w.QN, R=w.R, horizon=w.horizon),
        ExperimentConfig: dict(plant=plant, weights=w, x0=config.x0,
                               scheme=config.scheme, sweep=config.sweep),
    }


FIELDS = [(kind, name) for kind, args in _constructor_args(GENERIC).items()
          for name in args]


class TestConstructorArguments:
    """Any value, in any one field of a public constructor, builds the
    object or raises a DelayGameError."""

    @fuzz
    @given(field=st.sampled_from(FIELDS), value=ARGUMENTS)
    @example(field=(ContinuousPlant, "h"), value=True)
    @example(field=(GameWeights, "horizon"), value=np.float64(5.0))
    @example(field=(ExperimentConfig, "sweep"), value=[[0.0, "x"], [0.0]])
    @example(field=(DiscretePlant, "Gamma1"), value=None)
    def test_any_value_in_any_field(self, field, value):
        kind, name = field
        args = _constructor_args(GENERIC)[kind]
        args[name] = value
        _parses_or_raises_package_error(lambda: kind(**args))

    def test_unchanged_fields_build(self):
        for kind, args in _constructor_args(GENERIC).items():
            assert _parses_or_raises_package_error(lambda: kind(**args))


# Every public function that takes built objects, with arguments by name
# that it accepts: the generic preset's.
ENTRY_POINT_CALLS = [
    (rollout, dict(dp=DISCRETE, schedule=SCHEDULE, x0=GENERIC.x0,
                   weights=GENERIC.weights)),
    (nash_deviation_check, dict(dp=DISCRETE, schedule=SCHEDULE,
                                weights=GENERIC.weights, x0=GENERIC.x0,
                                trials=3)),
    (evaluate_costs, dict(trajectory=TRAJECTORY, weights=GENERIC.weights)),
    (synthesize, dict(dp=DISCRETE, weights=GENERIC.weights)),
    (synthesize_batch, dict(plants=[DISCRETE], weights=GENERIC.weights)),
    (synthesize_for_scheme, dict(config=GENERIC, scheme="proposed")),
    (run_scheme, dict(config=GENERIC, scheme="proposed")),
    (sweep_delays, dict(config=GENERIC)),
    (compare_schemes, dict(config=GENERIC)),
]
BUILT_ARGUMENTS = [
    pytest.param(call, kwargs, name, id=f"{call.__name__}-{name}")
    for call, kwargs in ENTRY_POINT_CALLS
    for name, value in kwargs.items()
    if isinstance(value, (DiscretePlant, GainSchedule, GameWeights,
                          Trajectory, ExperimentConfig))]


class TestBuiltArguments:
    """A wrong object where an entry point takes a plant, schedule,
    weights, trajectory or config raises SchemaError naming the argument,
    not a bare AttributeError."""

    @pytest.mark.parametrize("call, kwargs, name", BUILT_ARGUMENTS)
    def test_wrong_object_names_the_argument(self, call, kwargs, name):
        call(**kwargs)
        with pytest.raises(SchemaError, match=f"^{name}: expected a \\w+, "
                                              f"got str$") as info:
            call(**{**kwargs, name: "x"})
        assert info.value.path == name

    def test_wrong_plant_in_a_batch_names_its_index(self):
        with pytest.raises(SchemaError, match=r"^plants\[1\]: expected a "
                                              r"DiscretePlant, got str$"):
            synthesize_batch([DISCRETE, "x"], GENERIC.weights)
        with pytest.raises(SchemaError, match="^plants: expected a sequence"):
            synthesize_batch(5, GENERIC.weights)


def _leaf_paths(doc, prefix=()):
    """Key paths of the numbers in a nested list."""
    if isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _leaf_paths(value, prefix + (index,))
    else:
        yield prefix


def _gains_with(key, path, value):
    """Copy of the gains document with one entry of doc[key] replaced."""
    doc = copy.deepcopy(GAINS_DOC)
    parent = doc[key]
    for index in path[:-1]:
        parent = parent[index]
    parent[path[-1]] = value
    return doc


class TestGainsNumbers:
    """Gains entries follow the config reader's number rule: a string or a
    boolean anywhere in A_coef or B_coef is a schema error naming the
    entry."""

    @fuzz
    @given(key=st.sampled_from(["A_coef", "B_coef"]), data=st.data(),
           value=st.sampled_from(["1.5", "  1.5 ", "nan", "", True, False]))
    def test_string_or_boolean_entry_rejected(self, key, data, value):
        path = data.draw(st.sampled_from(list(_leaf_paths(GAINS_DOC[key]))))
        doc = _gains_with(key, path, value)
        with pytest.raises(SchemaError) as info:
            schedule_from_dict(doc, GENERIC.plant, GENERIC.weights.horizon)
        entry = f"<gains>.{key}" + "".join(f"[{i}]" for i in path)
        assert info.value.path == entry
        assert str(info.value) == (f"{entry}: expected a number, got "
                                   f"{type(value).__name__}")

    @pytest.mark.parametrize("key", ["A_coef", "B_coef"])
    def test_cli_exits_1_naming_key(self, workdir, key):
        path = next(_leaf_paths(GAINS_DOC[key]))
        doc = _gains_with(key, path, "1.5")
        config = workdir / "generic.json"
        config.write_text(dump_config(GENERIC))
        gains = workdir / "string_gains.json"
        gains.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(config), "--gains",
                         str(gains), "--out", str(workdir / "out.csv")])
        assert code == 1
        entry = f"<gains>.{key}" + "".join(f"[{i}]" for i in path)
        assert err.getvalue() == (f"delay-lqgame: config error: {entry}: "
                                  f"expected a number, got str\n")


# One array input of each document: its document (None: the sidecar of
# TRAJECTORY), the key path to the array, the index of one number and of
# one row of at least two entries (neither the first, so a reported index
# comes from the entry's position), and what a row one entry short reads.
SHORT = "length {short}, expected {full}"
ARRAYS = {
    "config plant.A": (CONFIG_DOCS[0], ("plant", "A"), (1, 0), (1,), SHORT),
    "gains A_coef": (GAINS_DOC, ("A_coef",), (2, 1, 0, 1), (2, 1, 0),
                     SHORT),
    "gains B_coef": (GAINS_DOC, ("B_coef",), (2, 1, 1, 0, 0), (2, 1),
                     SHORT),
    # One axis: no sibling rows, so the length is checked against p.
    "sidecar per_player_cost": (None, ("per_player_cost",), (1,), (),
                                "{short} entries for p={full}"),
}

# (case, whether it replaces a number or a row, the JSON literal put there
# (None: the row less its last entry), the message).
ARRAY_CASES = [
    ("string", "number", '"1.5"', "expected a number, got str"),
    ("boolean", "number", "true", "expected a number, got bool"),
    ("nan", "number", "NaN", "expected a finite number, got nan"),
    ("1e400", "number", "1e400", "expected a finite number, got inf"),
    ("short row", "row", None, None),
    ("empty list", "row", "[]", "expected a non-empty array"),
    ("number for list", "row", "1.0", "expected an array, got float"),
    ("list for number", "number", "[1.0]", "expected a number, got list"),
]


class TestArrayRule:
    """Config, gains and trajectory sidecar read their arrays under one
    rule, and a departing entry is named by its index path."""

    @pytest.fixture(scope="class")
    def trajectory_csv(self, tmp_path_factory):
        """A trajectory CSV whose sidecar a case replaces; TRAJECTORY's own
        files stay beside it."""
        path = tmp_path_factory.mktemp("array_rule") / "traj.csv"
        write_trajectory_csv(TRAJECTORY, path)
        bad = path.with_name("bad.csv")
        bad.write_text(path.read_text())
        return bad

    def _bad(self, name, case, trajectory_csv):
        """(document text, entry path, message) of one table case."""
        doc, keys, number, row, short = ARRAYS[name]
        sidecar = trajectory_csv.with_suffix(".json")
        doc = copy.deepcopy(doc or json.loads(
            trajectory_csv.with_name("traj.json").read_text()))
        _, where, literal, message = case
        index = number if where == "number" else row
        *path, last = keys + index
        parent = doc
        for key in path:
            parent = parent[key]
        if literal is None:
            full = len(parent[last])
            literal = json.dumps(parent[last][:-1])
            message = short.format(short=full - 1, full=full)
        parent[last] = "@"
        text = json.dumps(doc).replace('"@"', literal)
        prefix = {"config": "", "gains": "<gains>.", "sidecar": f"{sidecar}."}
        entry = (prefix[name.split()[0]] + ".".join(keys)
                 + "".join(f"[{i}]" for i in index))
        return text, entry, message

    @pytest.mark.parametrize("case", ARRAY_CASES, ids=lambda c: c[0])
    @pytest.mark.parametrize("name", list(ARRAYS))
    def test_reader_names_the_entry(self, trajectory_csv, name, case):
        text, entry, message = self._bad(name, case, trajectory_csv)
        with pytest.raises(SchemaError) as info:
            if name.startswith("config"):
                load_config(text)
            elif name.startswith("gains"):
                schedule_from_dict(json.loads(text), GENERIC.plant,
                                   GENERIC.weights.horizon)
            else:
                trajectory_csv.with_suffix(".json").write_text(text)
                read_trajectory_csv(trajectory_csv)
        assert info.value.path == entry
        assert str(info.value) == f"{entry}: {message}"

    @pytest.mark.parametrize("case", ARRAY_CASES, ids=lambda c: c[0])
    @pytest.mark.parametrize("name", ["config plant.A", "gains A_coef",
                                      "gains B_coef"])
    def test_cli_exits_1_naming_the_entry(self, workdir, trajectory_csv,
                                          name, case):
        text, entry, message = self._bad(name, case, trajectory_csv)
        config = workdir / "array_rule.json"
        gains = workdir / "array_rule_gains.json"
        if name.startswith("config"):
            config.write_text(text)
            argv = ["discretize", "--config", str(config)]
        else:
            config.write_text(dump_config(GENERIC))
            gains.write_text(text)
            argv = ["simulate", "--config", str(config), "--gains",
                    str(gains), "--out", str(workdir / "array_rule_out.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == 1
        assert err.getvalue() == (f"delay-lqgame: config error: {entry}: "
                                  f"{message}\n")

    def test_sweep_value_out_of_range_names_the_entry(self, workdir):
        grid = CONFIG_DOCS[0]["sweep"]["delays_grid"]
        grids = [grid[0], grid[1][:3] + [0.05] + grid[1][4:]]
        text = _with(CONFIG_DOCS[0], "sweep", {"delays_grid": grids})
        expected = ("delay-bound: sweep.delays_grid[1][3]=0.05 must satisfy "
                    "0 <= tau < h=0.05")
        with pytest.raises(DelayBoundError) as info:
            load_config(text)
        assert str(info.value) == expected
        config = workdir / "sweep_range.json"
        config.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["sweep", "--config", str(config),
                         "--out", str(workdir / "sweep_range.csv")])
        assert code == 1
        assert err.getvalue() == f"delay-lqgame: validation error: {expected}\n"


class TestSizeBudget:
    """Configs whose arrays would pass model.MAX_ENTRIES are rejected by
    validation alone; nothing of their size is ever built."""

    def test_horizon_past_budget_names_field(self):
        text = _with(CONFIG_DOCS[0], "weights", "horizon", 10**9)
        with pytest.raises(ValidationError, match="weights.horizon"):
            load_config(text)

    def test_grid_past_budget_names_field(self):
        grid = [round(0.00001 * i, 10) for i in range(2000)]
        text = _with(CONFIG_DOCS[0], "sweep", {"delays_grid": [grid, grid]})
        with pytest.raises(ValidationError, match="sweep.delays_grid"):
            load_config(text)

    def test_budget_is_inclusive(self, monkeypatch):
        # generic: horizon 3, M + p N = 4, 2 x 2 grid points.
        monkeypatch.setattr(model, "MAX_ENTRIES", 3 * 16)
        text = _with(CONFIG_DOCS[0], "sweep", {"delays_grid": [[0.0]] * 2})
        assert load_config(text).weights.horizon == 3
        with pytest.raises(ValidationError, match="weights.horizon"):
            load_config(_with(CONFIG_DOCS[0], "weights", "horizon", 4))
        with pytest.raises(ValidationError, match="sweep.delays_grid"):
            load_config(_with(CONFIG_DOCS[0], "sweep",
                              {"delays_grid": [[0.0, 0.01], [0.0]]}))

    @pytest.mark.parametrize("command", ["synthesize", "simulate", "sweep",
                                         "compare"])
    @pytest.mark.parametrize("field,value", [
        ("horizon", 10**9),
        ("sweep", [[round(0.00001 * i, 10) for i in range(2000)]] * 2)])
    def test_cli_exits_1_naming_field(self, workdir, monkeypatch, command,
                                      field, value):
        def never(*args, **kwargs):
            raise AssertionError("a rejected config reached the numerics")

        for name in ("synthesize_for_scheme", "run_scheme", "sweep_delays",
                     "compare_schemes"):
            monkeypatch.setattr(schemes, name, never)
        # synthesize designs through the design layer's home.
        monkeypatch.setattr(synthesis, "synthesize_for_scheme", never)
        if field == "horizon":
            text = _with(CONFIG_DOCS[0], "weights", "horizon", value)
            named = "weights.horizon"
        else:
            text = _with(CONFIG_DOCS[0], "sweep", {"delays_grid": value})
            named = "sweep.delays_grid"
        config = workdir / "big.json"
        config.write_text(text)
        err = io.StringIO()
        # An --out whose .json sidecar is not the config, which simulate
        # would reject before reading it.
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(config),
                         "--out", str(workdir / "out.csv")])
        assert code == 1
        assert named in err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestReadTrajectoryCsv:
    @fuzz
    @given(lines=st.lists(st.text(max_size=30), max_size=6),
           sidecar=st.one_of(JSON, mutated(json.loads(json.dumps(
               {"M": 2, "N": 1, "p": 2, "horizon": 3,
                "per_player_cost": [1.0, 2.0], "total_cost": 3.0})))))
    # Sidecar sizes far beyond the file must not size any allocation.
    @example(lines=["k,x_1,u_1_1", "0,1.0,2.0", "1,1.0,"],
             sidecar={"M": 10**12, "N": 1, "p": 1, "horizon": 1,
                      "per_player_cost": [1.0], "total_cost": 1.0})
    @example(lines=["k,x_1,u_1_1", "0,1.0,2.0", "1,1.0,"],
             sidecar={"M": 1, "N": 1, "p": 1, "horizon": 10**12,
                      "per_player_cost": [1.0], "total_cost": 1.0})
    def test_any_rows_and_sidecar(self, workdir, lines, sidecar):
        path = workdir / "any.csv"
        path.write_text("\n".join(lines))
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        _parses_or_raises_package_error(read_trajectory_csv, path)

    @fuzz
    @given(row=st.integers(0, 4), cell=st.integers(0, 4),
           text=st.text(max_size=12), sidecar=st.data())
    def test_mutated_file(self, workdir, row, cell, text, sidecar):
        path = workdir / "traj.csv"
        sidecar_path = write_trajectory_csv(TRAJECTORY, path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[row][cell % len(rows[row])] = text
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        if sidecar.draw(st.booleans()):
            doc = json.loads(sidecar_path.read_text())
            sidecar_path.write_text(json.dumps(sidecar.draw(mutated(doc))))
        _parses_or_raises_package_error(read_trajectory_csv, path)


class TestCliExitCodes:
    @fuzz
    @given(st.binary(max_size=40) | st.sampled_from(CONFIG_DOCS).flatmap(
        mutated).map(lambda doc: json.dumps(doc).encode()))
    # e^(A h) whose argument's norm overflows
    @example(_with(CONFIG_DOCS[0], "plant", "A",
                   [[1e300, 1e300], [1e300, 1e300]]).replace(
        '"h": 0.05', '"h": 1e10').encode())
    def test_config_file(self, workdir, data):
        config = workdir / "config.json"
        config.write_bytes(data)
        code = _cli(["discretize", "--config", str(config)])
        try:
            load_config(data.decode("utf-8"))
        except (DelayGameError, UnicodeDecodeError):
            assert code == 1

    @fuzz
    @given(st.binary(max_size=40) | mutated(GAINS_DOC).map(
        lambda doc: json.dumps(doc).encode()))
    def test_gains_file(self, workdir, data):
        config = workdir / "generic.json"
        config.write_text(dump_config(GENERIC))
        gains = workdir / "gains.json"
        gains.write_bytes(data)
        _cli(["simulate", "--config", str(config), "--gains", str(gains),
              "--out", str(workdir / "out.csv")])
