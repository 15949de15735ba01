"""JSON interchange for games, belief structures, stacks, and profiles.

Documents carry an explicit format version and one of five kinds.  Numbers
travel as decimal strings so files stay stable across writers; serialization
is canonical (sorted keys, fixed list orders, two-space indent, trailing
newline), making serialize(parse(text)) == text for canonical inputs.
Parsing rejects non-finite numbers, rows that fail ``bn.is_distribution``
and anything a document repeats, each as a ``SchemaViolation`` at its path.

``SCHEMAS`` is the written spec of each kind, in the JSON Schema (Draft
2020-12) keywords listed in ``_KEYWORDS``.  At import each schema compiles
to one plain walk over a parsed document; a keyword outside that subset
fails the import.  The walk reports the violation a Draft 2020-12 validator
reports first once its errors are sorted by path: the same JSON path and
the same message text, so no third-party validator runs at run time.

Each shape is written once: ``SCHEMAS`` is built from ``_closed`` (every
closed object but ``_VARIABLE``'s branches), ``_document`` (the header first)
and ``_family`` (``ii-maid`` and ``depth-stack``).  Key order is part of the
spec, since the walk breaks ties at one path in schema key order, and
``tests/golden/schemas.json`` is its rendering, ``json.dumps(SCHEMAS, indent=2)``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from . import bn
from .bn import Cpd, Row, Variable
from .errors import SchemaViolation, ValidationError
from .incomplete import IiMaid, InformationSet, SubjectiveMaid
from .depth import DepthStack
from .maid import Maid, Model, PostPolicyMaid, base_maid, fixed_rules

FORMAT_VERSION = 1

PROB = {"type": "string", "pattern": r"^-?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$"}
NAME = {"type": "string", "minLength": 1}

# The parts that several schemas share, each written once.
_ROW = {"type": "object", "minProperties": 1, "additionalProperties": PROB}
_NAMES = {"type": "array", "items": NAME, "minItems": 1, "uniqueItems": True}
_PAIRS = {
    "type": "array", "uniqueItems": True,
    "items": {
        "type": "array",
        "items": NAME,
        "minItems": 2,
        "maxItems": 2,
    },
}


def _closed(required: list[str], **properties: dict) -> dict:
    """An object schema with exactly ``properties``, of which ``required``."""
    return {
        "type": "object",
        "properties": properties,
        "required": required,
        "additionalProperties": False,
    }


def _document(kind: str, required: list[str], **properties: dict) -> dict:
    """The schema of a ``kind`` document: the header, then ``properties``."""
    return _closed(
        ["format_version", "kind", *required],
        format_version={"const": FORMAT_VERSION},
        kind={"const": kind},
        **properties,
    )


# A variable's three shapes stay literal: they carry no ``type``, and a
# ``oneOf`` message prints each branch.
_VARIABLE = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "name": NAME,
                "kind": {"const": "chance"},
                "domain": _NAMES,
            },
            "required": ["name", "kind", "domain"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "name": NAME,
                "kind": {"const": "decision"},
                "owner": NAME,
                "domain": _NAMES,
            },
            "required": ["name", "kind", "owner", "domain"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "name": NAME,
                "kind": {"const": "utility"},
                "owner": NAME,
                "values": _ROW,
            },
            "required": ["name", "kind", "owner", "values"],
            "additionalProperties": False,
        },
    ],
}

_ROWS = {
    "type": "array",
    "items": _closed(
        ["context", "row"],
        context={"type": "array", "items": NAME},
        row=_ROW,
    ),
}
_CPD = _closed(
    ["child", "rows"],
    child=NAME,
    rows=_ROWS,
)
_GRAPH_PROPS = {
    "variables": {"type": "array", "items": _VARIABLE, "minItems": 1},
    "edges": _PAIRS,
    "cpds": {"type": "array", "items": _CPD},
}
_SUBJECTIVE = _closed(
    ["id", "variables", "edges", "cpds", "beliefs"],
    id=NAME,
    **_GRAPH_PROPS,
    xi={"type": "array", "items": _CPD},
    beliefs={"type": "object", "additionalProperties": _ROW},
)


def _family(kind: str, key: str) -> dict:
    """The schema of an ``ii-maid`` or ``depth-stack``, members under ``key``."""
    members = {"type": "array", "items": _SUBJECTIVE, "minItems": 1}
    return _document(
        kind,
        ["agents", "objective", key],
        agents=_NAMES,
        objective=NAME,
        **{key: members},
    )


SCHEMAS: dict[str, dict] = {
    "maid": _document(
        "maid",
        ["agents", "variables", "edges", "cpds"],
        agents=_NAMES,
        **_GRAPH_PROPS,
    ),
    "ii-maid": _family("ii-maid", "models"),
    "depth-stack": _family("depth-stack", "nodes"),
    "maid-profile": _document("maid-profile", ["rules"], rules={
        "type": "array",
        "items": _closed(
            ["decision", "parents", "rows"],
            decision=NAME,
            parents={"type": "array", "items": NAME, "uniqueItems": True},
            rows=_ROWS,
        ),
    }),
    "ii-profile": _document("ii-profile", ["rules"], rules={
        "type": "array",
        "items": _closed(
            ["agent", "observation", "row"],
            agent=NAME,
            observation=_PAIRS,
            row=_ROW,
        ),
    }),
}


# A schema compiles to a check that returns its violations as (path, message)
# pairs, paths relative to the checked value, in the order a Draft 2020-12
# validator finds them: keywords in the schema's order, descending as it goes.
Violations = list[tuple[tuple, str]]
Check = Callable[[Any], Violations]
KeywordCheck = Callable[[Any, Violations], None]  # appends to the list
_TYPES = {"object": dict, "array": list, "string": str}
_PLAIN_KEY = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _unbool(x: Any, true: object = object(), false: object = object()) -> Any:
    """``x``, with ``True``/``False`` made distinct from ``1``/``0``."""
    if x is True:
        return true
    if x is False:
        return false
    return x


def _equal(a: Any, b: Any) -> bool:
    """JSON equality: ``True`` is not ``1``, and containers compare by item."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(k in b and _equal(v, b[k]) for k, v in a.items())
    return _unbool(a) == _unbool(b)


def _unique(items: list) -> bool:
    """Whether no two items are ``_equal``: neighbours after a sort, or every
    pair when the items do not sort."""
    try:
        ordered = sorted(map(_unbool, items))
        return not any(map(_equal, ordered, ordered[1:]))
    except (NotImplementedError, TypeError):
        seen: list = []
        for x in map(_unbool, items):
            if any(_equal(y, x) for y in seen):
                return False
            seen.append(x)
        return True


def _descend(errors: Violations, key: Any, found: Violations) -> None:
    """Add the violations ``found`` under ``key`` to ``errors``."""
    if found:
        errors.extend(((key, *path), message) for path, message in found)


def _type(name: str, schema: dict) -> KeywordCheck:
    if name not in _TYPES:
        raise ValueError(f"unsupported schema type {name!r}")
    cls = _TYPES[name]

    def check(x, errors):
        if not isinstance(x, cls):
            errors.append(((), f"{x!r} is not of type {name!r}"))
    return check


def _properties(props: dict, schema: dict) -> KeywordCheck:
    checks = [(key, compile_schema(sub)) for key, sub in props.items()]

    def check(x, errors):
        if isinstance(x, dict):
            for key, sub in checks:
                if key in x:
                    _descend(errors, key, sub(x[key]))
    return check


def _required(names: list, schema: dict) -> KeywordCheck:
    def check(x, errors):
        if isinstance(x, dict):
            for name in names:
                if name not in x:
                    errors.append(((), f"{name!r} is a required property"))
    return check


def _additional(extra: dict | bool, schema: dict) -> KeywordCheck:
    known = schema.get("properties", {})
    sub = None if extra is False else compile_schema(extra)

    def check(x, errors):
        if not isinstance(x, dict):
            return
        keys = [key for key in x if key not in known]
        if sub is not None:
            for key in keys:
                _descend(errors, key, sub(x[key]))
        elif keys:
            listed = ", ".join(repr(key) for key in sorted(keys, key=str))
            verb = "was" if len(keys) == 1 else "were"
            errors.append(((), f"Additional properties are not allowed ({listed} {verb} unexpected)"))
    return check


def _items(item: dict, schema: dict) -> KeywordCheck:
    sub = compile_schema(item)

    def check(x, errors):
        if isinstance(x, list):
            for i, value in enumerate(x):
                _descend(errors, i, sub(value))
    return check


def _bound(cls: type, too_many: bool, word: str):
    """A ``min``/``max`` size keyword on values of type ``cls``, whose
    message reads ``word`` unless the bound allows exactly one or none."""
    def make(n: int, schema: dict) -> KeywordCheck:
        edge = 0 if too_many else 1
        message = word if n != edge else (
            "is expected to be empty" if too_many else "should be non-empty")

        def check(x, errors):
            if isinstance(x, cls) and (len(x) > n if too_many else len(x) < n):
                errors.append(((), f"{x!r} {message}"))
        return check
    return make


def _unique_items(on: bool, schema: dict) -> KeywordCheck:
    def check(x, errors):
        if on and isinstance(x, list) and not _unique(x):
            errors.append(((), f"{x!r} has non-unique elements"))
    return check


def _const(value: Any, schema: dict) -> KeywordCheck:
    def check(x, errors):
        if not _equal(x, value):
            errors.append(((), f"{value!r} was expected"))
    return check


def _one_of(options: list, schema: dict) -> KeywordCheck:
    checks = [(compile_schema(sub), sub) for sub in options]

    def check(x, errors):
        valid = [sub for walk, sub in checks if not walk(x)]
        if not valid:
            errors.append(((), f"{x!r} is not valid under any of the given schemas"))
        elif len(valid) > 1:
            listed = ", ".join(repr(sub) for sub in valid[1:] + valid[:1])
            errors.append(((), f"{x!r} is valid under each of {listed}"))
    return check


def _pattern(source: str, schema: dict) -> KeywordCheck:
    regex = re.compile(source)

    def check(x, errors):
        if isinstance(x, str) and not regex.search(x):
            errors.append(((), f"{x!r} does not match {source!r}"))
    return check


# The keywords ``SCHEMAS`` may use, each with the builder of its check.
_KEYWORDS = {
    "type": _type,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional,
    "items": _items,
    "minItems": _bound(list, False, "is too short"),
    "maxItems": _bound(list, True, "is too long"),
    "uniqueItems": _unique_items,
    "minProperties": _bound(dict, False, "does not have enough properties"),
    "const": _const,
    "oneOf": _one_of,
    "pattern": _pattern,
    "minLength": _bound(str, False, "is too short"),
}


def compile_schema(schema: dict) -> Check:
    """The check of ``schema``; a keyword outside ``_KEYWORDS`` raises ``ValueError``."""
    unknown = sorted(set(schema) - set(_KEYWORDS))
    if unknown:
        raise ValueError(f"unsupported schema keywords {unknown}")
    checks = [_KEYWORDS[key](value, schema) for key, value in schema.items()]

    def check(x: Any) -> Violations:
        errors: Violations = []
        for keyword in checks:
            keyword(x, errors)
        return errors
    return check


def _json_path(path: tuple) -> str:
    out = "$"
    for key in path:
        if isinstance(key, int):
            out += f"[{key}]"
        elif _PLAIN_KEY.match(key):
            out += f".{key}"
        else:
            out += "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']"
    return out


_CHECKS = {kind: compile_schema(schema) for kind, schema in SCHEMAS.items()}


def check_schema(kind: str, raw: Any) -> None:
    """Raise the violation of ``SCHEMAS[kind]`` at the first path, if any."""
    errors = _CHECKS[kind](raw)
    if errors:
        path, message = min(errors, key=lambda e: e[0])
        raise SchemaViolation(_json_path(path), message)


@dataclass(frozen=True)
class MaidProfile:
    rules: dict[str, Cpd]


@dataclass(frozen=True)
class IiProfile:
    rules: dict[InformationSet, Row]


@dataclass(frozen=True)
class GameDocument:
    kind: str
    value: Maid | IiMaid | DepthStack | MaidProfile | IiProfile


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _parse_prob(s: str, path: str) -> float:
    try:
        x = float(s)
    except ValueError:
        raise SchemaViolation(path, f"not a decimal number: {s!r}") from None
    if not math.isfinite(x):
        raise SchemaViolation(path, f"not a finite number: {s!r}")
    return x


def _row_from_doc(doc: Mapping[str, str], path: str) -> dict[str, float]:
    row = {label: _parse_prob(s, f"{path}.{label}") for label, s in doc.items()}
    if not bn.is_distribution(row):
        label = bn.bad_entry(row)
        if label is not None:
            raise SchemaViolation(f"{path}.{label}", f"{row[label]!r} is not a probability")
        raise SchemaViolation(path, f"row sums to {_fmt(sum(row.values()))}, expected 1")
    return row


def _put(table: dict, key: Any, value: Any, path: str, what: str) -> None:
    """``table[key] = value``, rejecting a repeated key at ``path``."""
    if key in table:
        raise SchemaViolation(path, f"duplicate {what}")
    table[key] = value


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        _put(obj, key, value, "$", f"key {key!r}")
    return obj


def _variables_from_doc(items: list[dict], path: str) -> dict[str, Variable]:
    out: dict[str, Variable] = {}
    for i, item in enumerate(items):
        if item["kind"] == "utility":
            values = {
                label: _parse_prob(s, f"{path}[{i}].values.{label}")
                for label, s in item["values"].items()
            }
            v = Variable(item["name"], tuple(sorted(values)), bn.UTILITY, item["owner"], values)
        else:
            v = Variable(item["name"], tuple(item["domain"]), item["kind"], item.get("owner"))
        _put(out, v.name, v, f"{path}[{i}].name", f"variable {v.name}")
    return out


def _cpd_from_doc(
    item: dict, parents: tuple[str, ...], path: str
) -> Cpd:
    rows: dict[tuple[str, ...], Row] = {}
    for j, entry in enumerate(item["rows"]):
        ctx = tuple(entry["context"])
        if len(ctx) != len(parents):
            raise SchemaViolation(
                f"{path}.rows[{j}].context",
                f"expected {len(parents)} values for parents {list(parents)}",
            )
        row = _row_from_doc(entry["row"], f"{path}.rows[{j}].row")
        _put(rows, ctx, row, f"{path}.rows[{j}].context", f"context {list(ctx)}")
    return Cpd(item["child"], parents, rows)


def _model_from_doc(
    doc: Mapping[str, Any], path: str, agents: Iterable[str]
) -> Model:
    variables = _variables_from_doc(doc["variables"], f"{path}.variables")
    parents: dict[str, list[str]] = {name: [] for name in variables}
    for i, (u, v) in enumerate(doc["edges"]):
        if u not in variables or v not in variables:
            raise SchemaViolation(
                f"{path}.edges[{i}]", f"unknown variable in ({u}, {v})"
            )
        parents[v].append(u)
    cpds = {}
    for i, item in enumerate(doc["cpds"]):
        child = item["child"]
        if child not in variables:
            raise SchemaViolation(f"{path}.cpds[{i}].child", f"unknown variable {child}")
        if variables[child].kind == bn.DECISION:
            raise SchemaViolation(
                f"{path}.cpds[{i}]", f"decision {child} must use xi, not cpds"
            )
        cpd = _cpd_from_doc(item, tuple(sorted(parents[child])), f"{path}.cpds[{i}]")
        _put(cpds, child, cpd, f"{path}.cpds[{i}].child", f"table for {child}")
    for v in variables.values():
        if v.kind != bn.DECISION and v.name not in cpds:
            raise SchemaViolation(f"{path}.cpds", f"missing table for {v.name}")
    try:
        maid = Maid.build(agents, variables.values(), doc["edges"], cpds.values())
    except ValidationError as exc:
        raise SchemaViolation(path, "; ".join(exc.issues)) from None
    xi_items = doc.get("xi", [])
    if not xi_items:
        return maid
    xi = {}
    for i, item in enumerate(xi_items):
        child = item["child"]
        if child not in variables or variables[child].kind != bn.DECISION:
            raise SchemaViolation(
                f"{path}.xi[{i}].child", f"{child} is not a decision"
            )
        rule = _cpd_from_doc(item, tuple(sorted(parents[child])), f"{path}.xi[{i}]")
        _put(xi, child, rule, f"{path}.xi[{i}].child", f"rule for {child}")
    try:
        return PostPolicyMaid(maid, xi)
    except ValidationError as exc:
        raise SchemaViolation(f"{path}.xi", "; ".join(exc.issues)) from None


def parse_document(text: str) -> GameDocument:
    """Validate and build the typed object a JSON document describes.

    The document is checked against ``SCHEMAS[kind]`` by the compiled walk
    (``check_schema``) before anything is built; the checks that need more
    than a schema (numbers, row sums, names that must resolve, repeats)
    follow as the objects are built.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise SchemaViolation("$", f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict) or "kind" not in raw:
        raise SchemaViolation("$.kind", "missing document kind")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in SCHEMAS:
        raise SchemaViolation("$.kind", f"unknown kind {kind!r}")
    check_schema(kind, raw)

    if kind == "maid":
        return GameDocument(kind, _model_from_doc(raw, "$", raw["agents"]))

    if kind in ("ii-maid", "depth-stack"):
        key = "models" if kind == "ii-maid" else "nodes"
        members = {}
        for i, item in enumerate(raw[key]):
            path = f"$.{key}[{i}]"
            model = _model_from_doc(item, path, raw["agents"])
            beliefs = {
                agent: _row_from_doc(row, f"{path}.beliefs.{agent}")
                for agent, row in sorted(item["beliefs"].items())
            }
            member = SubjectiveMaid(item["id"], model, beliefs)
            _put(members, item["id"], member, f"{path}.id", f"id {item['id']}")
        family = IiMaid if kind == "ii-maid" else DepthStack
        try:
            return GameDocument(kind, family(tuple(raw["agents"]), raw["objective"], members))
        except ValidationError as exc:
            raise SchemaViolation(f"$.{key}", "; ".join(exc.issues)) from None

    if kind == "maid-profile":
        rules = {}
        for i, item in enumerate(raw["rules"]):
            d = item["decision"]
            rule = _cpd_from_doc(
                {"child": d, "rows": item["rows"]}, tuple(item["parents"]), f"$.rules[{i}]"
            )
            _put(rules, d, rule, f"$.rules[{i}].decision", f"rule for {d}")
        return GameDocument(kind, MaidProfile(rules))

    rules = {}
    for i, item in enumerate(raw["rules"]):
        row = _row_from_doc(item["row"], f"$.rules[{i}].row")
        iset = InformationSet(
            item["agent"],
            tuple(sorted((v, val) for v, val in item["observation"])),
            tuple(sorted(row)),
        )
        _put(rules, iset, row, f"$.rules[{i}]", f"rule for {iset}")
    return GameDocument("ii-profile", IiProfile(rules))


def _variable_to_doc(v: Variable) -> dict:
    if v.kind == bn.UTILITY:
        return {
            "name": v.name,
            "kind": v.kind,
            "owner": v.owner,
            "values": {label: _fmt(v.values[label]) for label in v.domain},
        }
    out = {"name": v.name, "kind": v.kind, "domain": list(v.domain)}
    if v.owner is not None:
        out["owner"] = v.owner
    return out


def _cpd_to_doc(cpd: Cpd) -> dict:
    return {
        "child": cpd.child,
        "rows": [
            {
                "context": list(ctx),
                "row": {label: _fmt(p) for label, p in sorted(cpd.rows[ctx].items())},
            }
            for ctx in sorted(cpd.rows)
        ],
    }


def _graph_to_doc(model: Model) -> dict:
    m = base_maid(model)
    edges = sorted((u, v) for v in m.variables for u in m.parents[v])
    doc = {
        "variables": [_variable_to_doc(m.variables[n]) for n in sorted(m.variables)],
        "edges": [list(e) for e in edges],
        "cpds": [_cpd_to_doc(m.cpds[n]) for n in sorted(m.cpds)],
    }
    xi = fixed_rules(model)
    if xi:
        doc["xi"] = [_cpd_to_doc(xi[n]) for n in sorted(xi)]
    return doc


def _beliefs_to_doc(beliefs: Mapping[str, Mapping[str, float]]) -> dict:
    return {
        agent: {
            target: _fmt(p) for target, p in sorted(beliefs[agent].items())
        }
        for agent in sorted(beliefs)
    }


def _family_to_doc(
    key: str, value: IiMaid | DepthStack, members: Mapping[str, SubjectiveMaid]
) -> dict[str, Any]:
    """The body of an ``ii-maid`` or ``depth-stack``, members under ``key``."""
    return {
        "agents": list(value.agents),
        "objective": value.objective,
        key: [
            {
                "id": sid,
                **_graph_to_doc(members[sid].model),
                "beliefs": _beliefs_to_doc(members[sid].beliefs),
            }
            for sid in sorted(members)
        ],
    }


def serialize_document(value: object) -> str:
    """Render any supported object as canonical document text."""
    if isinstance(value, GameDocument):
        value = value.value
    if isinstance(value, Maid):
        kind, body = "maid", {"agents": list(value.agents), **_graph_to_doc(value)}
    elif isinstance(value, IiMaid):
        kind, body = "ii-maid", _family_to_doc("models", value, value.models)
    elif isinstance(value, DepthStack):
        kind, body = "depth-stack", _family_to_doc("nodes", value, value.nodes)
    elif isinstance(value, MaidProfile):
        kind, body = "maid-profile", {
            "rules": [
                {
                    "decision": d,
                    "parents": list(value.rules[d].parents),
                    "rows": _cpd_to_doc(value.rules[d])["rows"],
                }
                for d in sorted(value.rules)
            ],
        }
    elif isinstance(value, IiProfile):
        kind, body = "ii-profile", {
            "rules": [
                {
                    "agent": iset.agent,
                    "observation": [list(pair) for pair in iset.observation],
                    "row": {
                        label: _fmt(p)
                        for label, p in sorted(value.rules[iset].items())
                    },
                }
                for iset in sorted(value.rules)
            ],
        }
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    doc = {"format_version": FORMAT_VERSION, "kind": kind, **body}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
