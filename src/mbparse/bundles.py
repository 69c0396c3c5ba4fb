"""Saving and loading composite models as a directory of model files.

A bundle directory holds one ``manifest``, one model header per component
and one array file, ``arrays.npy``, that the headers slice (see
``learner``), all at its top level.  The manifest is JSON (format 4): one
walker writes the composite's dataclasses into it, each as an object of its
``"class"`` and its fields that are not None.  A dict is an object, a list
or tuple an array, a template or an enum its text, and a model the name of
its header, built from the field names and keys on the way to it
(``streams.IOB1.pass1_model.model``).  A load reads each value back as its
field's annotation says, so a reloaded bundle is what training built.
Bundles of an earlier format (1: models as text; 2: one ``.npy`` file per
array; 3: an INI manifest) no longer load: retrain them.

The components of a composite are trained on the same tokens, so their
headers repeat columns.  A ``save_*`` call stores each distinct array once
in the bundle's array file, which it writes whole; a ``load_*`` call reads
that file's header once and each distinct array in it once, through one
cache that it hands ``learner.load_model``.
"""

import dataclasses
import json
import os
import types
from enum import Enum

from .errors import DomainError
from .features import FeatureTemplate, format_template, parse_template
from .learner import ArrayFile, Model, load_model, save_model
from .pipeline import Chunker, ClauseBracketer, FullParser, NpParser, TypedChunker

_FORMAT = 4


def _dump(value, path, name: str, arrays: ArrayFile):
    """``value`` as JSON data.  A model in it is saved to the header named
    ``name``, the field names and keys that lead to it, each with a dot."""
    if isinstance(value, Model):
        save_model(value, os.path.join(path, name + "model"), arrays)
        return name + "model"
    if isinstance(value, FeatureTemplate):
        return format_template(value)
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
        return {"class": type(value).__name__,
                **{k: _dump(v, path, f"{name}{k}.", arrays) for k, v in items if v is not None}}
    if isinstance(value, dict):
        items = ((k.value if isinstance(k, Enum) else k, v) for k, v in value.items())
        return {k: _dump(v, path, f"{name}{k}.", arrays) for k, v in items}
    if isinstance(value, (list, tuple)):
        return [_dump(v, path, f"{name}{i}.", arrays) for i, v in enumerate(value)]
    return value


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _expect(data, kind: type):
    if not isinstance(data, kind):
        raise ValueError(f"expected {_JSON_NAMES[kind]}, got {_JSON_NAMES[type(data)]}")
    return data


def _load(kind, data, path, cache: dict):
    """The value of annotation ``kind`` that the JSON ``data`` holds."""
    if kind is Model:
        name = _expect(data, str)
        if os.path.basename(name) != name or not name.endswith(".model"):
            raise ValueError(f"bad model file name {name!r}")
        return load_model(os.path.join(path, name), cache)
    if kind is FeatureTemplate:
        return parse_template(_expect(data, str))
    if isinstance(kind, type) and issubclass(kind, Enum):
        return kind(_expect(data, str))
    origin, args = getattr(kind, "__origin__", None), getattr(kind, "__args__", ())
    if origin is dict:
        return {_load(args[0], k, path, cache): _load(args[1], v, path, cache)
                for k, v in _expect(data, dict).items()}
    if origin in (list, tuple):
        return origin(_load(args[0], v, path, cache) for v in _expect(data, list))
    if isinstance(kind, types.UnionType):  # an optional value, or one of some classes
        options = [a for a in args if a is not type(None)]
        if len(options) == 1:
            return _load(options[0], data, path, cache)
    elif not dataclasses.is_dataclass(kind):
        return _expect(data, kind)
    else:
        options = [kind]
    name = _expect(_expect(data, dict)["class"], str)
    cls = next((c for c in options if c.__name__ == name), None)
    if cls is None:
        raise ValueError(f"a {name!r} where a {' or '.join(c.__name__ for c in options)} belongs")
    return cls(**{
        f.name: _load(f.type, data[f.name], path, cache)
        for f in dataclasses.fields(cls)
        if f.name in data or f.default is dataclasses.MISSING
    })


def _save_bundle(composite, path) -> None:
    os.makedirs(path, exist_ok=True)
    arrays = ArrayFile("arrays.npy")
    manifest = {"format": _FORMAT, **_dump(composite, path, "", arrays)}
    arrays.write(path)
    with open(os.path.join(path, "manifest"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def _load_bundle(kind, path):
    """The composite of annotation ``kind`` that the bundle at ``path``
    holds; a manifest at fault is a ``DomainError`` that names the bundle."""
    if not os.path.isfile(os.path.join(path, "manifest")):
        raise DomainError(f"{path}: not a model bundle (no manifest)")
    try:
        with open(os.path.join(path, "manifest"), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (ValueError, RecursionError):  # an INI manifest of format 1-3, or damage
        manifest = None
    if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
        raise DomainError(f"{path}: unsupported bundle format")
    try:
        return _load(kind, manifest, path, {})
    except KeyError as exc:
        raise DomainError(f"{path}: manifest lacks {exc}") from None
    except ValueError as exc:
        if str(exc).startswith(os.path.join(path, "")):  # names a file of the bundle
            raise
        raise DomainError(f"{path}: malformed bundle: {exc}") from None


def save_chunker(chunker: Chunker, path) -> None:
    _save_bundle(chunker, path)


def load_chunker(path) -> Chunker:
    return _load_bundle(Chunker, path)


def save_typed_chunker(chunker: TypedChunker, path) -> None:
    _save_bundle(chunker, path)


def load_typed_chunker(path) -> TypedChunker:
    return _load_bundle(TypedChunker, path)


def save_clause_bracketer(bracketer: ClauseBracketer, path) -> None:
    _save_bundle(bracketer, path)


def load_clause_bracketer(path) -> ClauseBracketer:
    return _load_bundle(ClauseBracketer, path)


def save_np_parser(parser: NpParser, path) -> None:
    _save_bundle(parser, path)


def load_np_parser(path) -> NpParser:
    return _load_bundle(NpParser, path)


def save_full_parser(parser: FullParser, path) -> None:
    _save_bundle(parser, path)


def load_full_parser(path) -> FullParser:
    return _load_bundle(FullParser, path)
