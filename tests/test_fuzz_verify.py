"""Fuzz `hadwiger verify` with hostile values in its fields.

One field of a serialized (1,2,3,1) certificate is overwritten with an
out-of-range or wrongly shaped value: an integer, a string, a float, null,
a label object or nested lists of these.  About half the draws put a
label-shaped value at a label position instead.  Whatever the value,
`cli.main` must return 0, 1 or 2 and let no exception escape, a mutant it
refuses (exit 2) must be refused by a `raise` of the package, and a mutant
it accepts must still be accepted after a load and dump through `serialize`.
"""
import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadwiger import serialize
from hadwiger.cli import main
from test_reach import refused_by_a_package_raise

# JSON paths of the fuzzed fields; ANY stands for one member of the
# container there (a list position or an object key), drawn per example.
ANY = object()
VORTEX = ("structure", "vortices", 0)
BASE = ("structure", "base")
FIELDS = [
    ("n",),
    ("structure", "params"),
    ("structure", "params", ANY),
    ("structure", "disc_faces"),
    ("structure", "disc_faces", ANY),
    ("structure", "disc_faces", ANY, ANY),
    (*VORTEX, "graph"),
    (*VORTEX, "graph", "n"),
    (*VORTEX, "graph", "edges"),
    (*VORTEX, "graph", "edges", ANY),
    (*VORTEX, "graph", "labels"),
    (*VORTEX, "graph", "labels", ANY),
    (*VORTEX, "perimeter"),
    (*VORTEX, "perimeter", ANY),
    (*VORTEX, "bags"),
    (*VORTEX, "bags", ANY),
    (*VORTEX, "bags", ANY, ANY),
    ("model", "pattern_n"),
    ("model", "pattern_edges"),
    ("model", "sets", ANY),
    ("model", "sets", ANY, ANY),
    (*BASE, "vertices"),
    (*BASE, "vertices", ANY),
    (*BASE, "edges", ANY),
    (*BASE, "rotations"),
    (*BASE, "rotations", ANY),
    (*BASE, "rotations", ANY, ANY),
    (*BASE, "signatures"),
    (*BASE, "signatures", ANY),
    (*BASE, "edge_labels"),
    (*BASE, "edge_labels", ANY),
    ("structure", "apex"),
    ("structure", "apex", ANY),
    ("structure", "apex_edges"),
    ("structure", "apex_edges", ANY),
    ("structure", "apex_edges", ANY, ANY),
]
# the fields above that hold one label
LABEL_FIELDS = [
    (*VORTEX, "bags", ANY, ANY),
    (*VORTEX, "perimeter", ANY),
    (*VORTEX, "graph", "labels", ANY),
    (*BASE, "vertices", ANY),
    (*BASE, "edge_labels", ANY),
    ("structure", "apex", ANY),
    ("structure", "apex_edges", ANY, ANY),
]

ORDERS = st.integers(-3, 60) | st.sampled_from([10**6, -(10**6)])
ATOMS = ORDERS | st.text("ab", max_size=2) | st.floats(allow_nan=False) | st.none()
VALUES = st.recursive(
    ATOMS,
    lambda inner: st.lists(inner, max_size=3)
    | st.builds(lambda x: {"split": x}, inner)
    | st.builds(lambda x: {"str": x}, inner),
    max_leaves=6,
)
LABEL_ATOMS = st.integers(-3, 9) | st.booleans() | st.floats(allow_nan=False) | st.none() | st.text("ab", max_size=2)
LABEL_VALUES = st.recursive(
    LABEL_ATOMS,
    lambda inner: st.lists(inner, max_size=3)
    | st.builds(lambda x, p: {"split": [x, p]}, inner, LABEL_ATOMS)
    | st.builds(lambda x: {"split": x}, inner)
    | st.builds(lambda x: {"str": x}, inner)
    | st.builds(lambda x, y: {"str": x, "split": y}, st.text("ab", max_size=2), inner),
    max_leaves=6,
)
CASES = st.tuples(st.sampled_from(FIELDS), VALUES) | st.tuples(st.sampled_from(LABEL_FIELDS), LABEL_VALUES)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "cert.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["construct", "--g", "1", "--p", "2", "--k", "3", "--a", "1", "--out", str(path)]) == 0
    return path, path.read_text()


def _put(obj, field, picks, value):
    """Overwrite `field` of `obj` with `value`; `picks` choose the ANY members."""
    picks = iter(picks)
    owner = obj
    for depth, step in enumerate(field):
        if step is ANY:
            members = sorted(owner) if isinstance(owner, dict) else range(len(owner))
            pick = next(picks)
            # an empty object (the base's signatures) gets a new key
            step = members[pick % len(members)] if members else str(pick)
        if depth == len(field) - 1:
            owner[step] = value
        else:
            owner = owner[step]


# labels that verify must refuse, since they cannot be written back, are
# always tried as edge labels, which only the decoder reads
@example(case=((*BASE, "edge_labels", ANY), 1.5), picks=[0, 0])
@example(case=((*BASE, "edge_labels", ANY), [None, 1]), picks=[0, 0])
@example(case=((*BASE, "edge_labels", ANY), {"split": [0.5, 1]}), picks=[0, 0])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=CASES, picks=st.lists(st.integers(0, 999), min_size=2, max_size=2))
def test_hostile_field_never_escapes(base, case, picks):
    field, value = case
    path, text = base
    obj = json.loads(text)
    _put(obj, field, picks, value)
    mutant = path.with_name("mutant.json")
    mutant.write_text(json.dumps(obj))
    code = _verify(mutant)
    assert code in (0, 1, 2)
    if code == 2:
        assert refused_by_a_package_raise(obj)
    if code == 0:
        again = path.with_name("again.json")
        again.write_text(serialize.dumps(serialize.certificate_to_json(serialize.certificate_from_json(obj))))
        assert _verify(again) == 0


def _verify(path):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["verify", str(path)])
