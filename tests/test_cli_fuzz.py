"""Random and malformed JSON through the CLI: exit 0, 1 or 2, and print JSON."""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from coxcert.cli import main

COMMANDS = (
    ["homology"],
    ["hyperbolic"],
    ["racg"],
    ["nerve"],
    ["davis", "--radius", "1"],
    ["davis", "--radius", "1", "--singular"],
    ["davis", "--radius", "1", "--sharp"],
)
NAMES = st.sampled_from(["a", "b", "c", "d", "e", "f"])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(-3, 8) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=3),
    max_leaves=12,
)


@st.composite
def simplicial_complexes(draw):
    """Complexes on at most 6 vertices, given by a few random simplices."""
    verts = draw(st.lists(NAMES, max_size=6, unique=True))
    if not verts:
        return {"vertices": [], "maximal_simplices": []}
    simplex = st.lists(st.sampled_from(verts), min_size=1, max_size=4)
    return {"vertices": verts, "maximal_simplices": draw(st.lists(simplex, max_size=6))}


complexes = st.one_of(
    simplicial_complexes(),
    st.fixed_dictionaries({
        "vertices": st.lists(NAMES, max_size=6),
        "maximal_simplices": st.lists(st.lists(NAMES, max_size=4), max_size=6) | json_values,
    }),
    json_values,
)


@st.composite
def coxeter_systems(draw):
    """Symmetric matrices on at most 6 generators, with some entries spoiled."""
    n = draw(st.integers(0, 6))
    gens = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    entries = st.sampled_from([0, 2, 3, 4, 5, 6])
    matrix = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draw(entries)
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        matrix[i][j] = draw(json_values)
    if draw(st.booleans()):
        matrix = draw(st.lists(st.lists(entries, max_size=n + 1), max_size=n + 1))
    return {"generators": gens, "matrix": matrix}


systems = st.one_of(
    coxeter_systems(),
    st.fixed_dictionaries({"generators": json_values, "matrix": json_values}),
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def run_all_commands(path, data):
    path.write_text(json.dumps(data))
    for command in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command[0], str(path), *command[1:]])
        report = json.loads(out.getvalue())
        assert code in (0, 1, 2), (command, data)
        assert isinstance(report, dict)
        assert ("error" in report) == (code == 2), (command, data, report)


@settings(max_examples=150, deadline=None)
@given(complexes)
def test_random_complex_json_never_crashes(input_path, data):
    run_all_commands(input_path, data)


@settings(max_examples=150, deadline=None)
@given(systems)
def test_random_coxeter_json_never_crashes(input_path, data):
    run_all_commands(input_path, data)
