"""The compiled schema walk in ``gamedoc`` against jsonschema, its oracle.

On every input the walk must report the violation that
``Draft202012Validator`` reports first once its errors are sorted by path,
with the same JSON path and message, or accept exactly what it accepts.
"""
import json

import pytest
from hypothesis import given, settings, strategies as st

from iimaid import fixtures, gamedoc
from iimaid.errors import SchemaViolation
from tests.test_cli_contract import _containers, _corrupt
from tests.test_gamedoc import BUNDLED_KINDS

jsonschema = pytest.importorskip("jsonschema")

WRONG_TYPES = [1, 1.5, True, False, None, "x", [], {}, ["x"], {"x": "1"}, [["a", "b"]]]
EXTRA_KEYS = ["extra", "x y", "it's", "0", "a\\b", "Z_9"]


def oracle(schema, raw):
    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(raw),
                    key=lambda e: list(e.absolute_path))
    return (errors[0].json_path, errors[0].message) if errors else None


def walk(kind, raw):
    try:
        gamedoc.check_schema(kind, raw)
    except SchemaViolation as exc:
        return exc.path, exc.message
    return None


def _slots(doc):
    """Every (container, key-or-index) slot of the document, in order."""
    slots = list(_containers(doc, dict))
    slots += [(items, i) for items in _containers(doc, list) for i in range(len(items))]
    return slots


def _mutate(data, doc) -> None:
    """One schema-targeted change of ``doc`` in place, chosen by ``data``."""
    how = data.draw(st.sampled_from(
        ["type", "empty-name", "format-version", "extra-key", "repeat", "variable", "pair"]))
    if how == "type":
        box, key = data.draw(st.sampled_from(_slots(doc)))
        box[key] = json.loads(json.dumps(data.draw(st.sampled_from(WRONG_TYPES))))
    elif how == "empty-name":
        strings = [(box, key) for box, key in _slots(doc) if isinstance(box[key], str)]
        if strings:
            box, key = data.draw(st.sampled_from(strings))
            box[key] = ""
    elif how == "format-version":
        doc["format_version"] = data.draw(st.sampled_from([True, 1.0, "1", 2, None]))
    elif how == "extra-key":
        objects = [doc] + [box[key] for box, key in _slots(doc) if isinstance(box[key], dict)]
        target = data.draw(st.sampled_from(objects))
        for key in data.draw(st.lists(st.sampled_from(EXTRA_KEYS), min_size=1,
                                      max_size=3, unique=True)):
            target[key] = data.draw(st.sampled_from(["0.5", 1, ["x"]]))
    elif how == "repeat" and _containers(doc, list):
        target = data.draw(st.sampled_from(_containers(doc, list)))
        target.append(json.loads(json.dumps(data.draw(st.sampled_from(target)))))
    elif how == "variable":
        variables = [v for box, key in _slots(doc) if key == "variables"
                     and isinstance(box[key], list) for v in box[key] if isinstance(v, dict)]
        if not variables:
            return
        v = data.draw(st.sampled_from(variables))
        change = data.draw(st.sampled_from(["kind", "owner", "domain", "values"]))
        if change == "kind":
            v["kind"] = data.draw(st.sampled_from(["chance", "decision", "utility", "mystery"]))
        elif change in v:
            del v[change]
        else:
            v[change] = {"owner": "A", "domain": ["a", "b"], "values": {"a": "1"}}[change]
    elif how == "pair":
        pairs = [box[key] for box, key in _slots(doc) if isinstance(box[key], list)
                 and len(box[key]) == 2 and all(isinstance(x, str) for x in box[key])]
        if not pairs:
            return
        pair = data.draw(st.sampled_from(pairs))
        if data.draw(st.booleans()):
            pair.pop()
        else:
            pair.append(data.draw(st.sampled_from(["x", pair[0]])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(BUNDLED_KINDS)), st.data())
def test_the_walk_reports_what_jsonschema_reports_first(name, data):
    text = fixtures.data_text(name).encode()
    if data.draw(st.booleans()):
        text = _corrupt(data, text)
    try:
        doc = json.loads(text, object_pairs_hook=gamedoc._object)
    except (ValueError, SchemaViolation):
        return  # not JSON, or a repeated key: rejected before any schema
    if isinstance(doc, dict) and doc:
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, doc)
    if not isinstance(doc, dict) or doc.get("kind") not in BUNDLED_KINDS.values():
        return
    assert walk(doc["kind"], doc) == oracle(gamedoc.SCHEMAS[doc["kind"]], doc)


def _subschemas(schema):
    """Every schema nested in ``schema``, itself included."""
    yield schema
    for key, value in schema.items():
        if key == "properties":
            for sub in value.values():
                yield from _subschemas(sub)
        elif key == "oneOf":
            for sub in value:
                yield from _subschemas(sub)
        elif key in ("items", "additionalProperties") and isinstance(value, dict):
            yield from _subschemas(value)


# The document schemas' parts, and schemas that reach the messages no
# document schema can: bounds other than one, a value valid under two
# ``oneOf`` branches (a variable cannot be, its branches' kinds differ),
# and structured constants.
SCHEMAS = list({id(s): s for top in gamedoc.SCHEMAS.values()
                for s in _subschemas(top)}.values()) + [
    {"oneOf": [{"type": "string"}, {"minLength": 2}, {"pattern": "a"}]},
    {"minItems": 2, "maxItems": 0, "minProperties": 3, "minLength": 2},
    {"maxItems": 2, "uniqueItems": True, "items": {"const": 1}},
    {"const": [1, "a", {"b": None}]},
    {"additionalProperties": {"type": "array"}, "properties": {"a": {"const": False}}},
    {"properties": {"a": {}}, "additionalProperties": False},
]

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_infinity=True)
    | st.sampled_from(["", "a", "1", "0.5", "1e400", "x\n", "name"]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["name", "kind", "a", "b", "0", "x y", "\n"])
                      | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(SCHEMAS))), JSON)
def test_each_schema_part_judges_any_json_value_as_jsonschema_does(i, value):
    schema = SCHEMAS[i]
    errors = gamedoc.compile_schema(schema)(value)
    found = None
    if errors:
        path, message = min(errors, key=lambda e: e[0])
        found = gamedoc._json_path(path), message
    assert found == oracle(schema, value)


@pytest.mark.parametrize("name", sorted(BUNDLED_KINDS))
def test_the_bundled_documents_pass_both(name):
    doc = json.loads(fixtures.data_text(name))
    assert walk(doc["kind"], doc) is None
    assert oracle(gamedoc.SCHEMAS[doc["kind"]], doc) is None
