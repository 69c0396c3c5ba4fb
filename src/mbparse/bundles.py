"""Saving and loading composite models as a bundle: a directory that holds
one JSON ``manifest`` and one array file, ``arrays.npy``.

The manifest is JSON (format 7).  One walker writes the composite's
dataclasses into it, each as an object of its ``"class"`` and its fields
that are not None: its ``pipeline.Tagger``s and the settings that tagging
reads.  A dict is an object, a list or tuple an array, a template or an
enum its text, and a model an object of its settings, weights and class
counts that names each of its code columns as a ``[span, table index]``
pair (see ``learner``): an ``offset,length`` slice of ``arrays.npy`` and a
place in the manifest's top-level ``"symbols"``, an array that holds each
distinct symbol table once as a list of strings.  A load reads each value
back as its field's annotation says, so a reloaded bundle is what training
built.  A key that is neither ``"class"`` nor a field (nor ``"format"`` or
``"symbols"`` at the top), a value that does not read as its annotation (a
JSON type, enum value, class or template that does not belong, or a field
that it lacks), a model's fault, or parts that do not fit (a ``Tagger``'s
template and model of two arities) is one ``BundleFault`` that names its
place, the field names and keys that lead to it
(``streams.IOB1.pass1``; the top is ``manifest``).  Earlier formats (1:
models as text; 2: a ``.npy`` file per array; 3: an INI manifest; 4: a text
header per model; 5: parallel template and model fields; 6: fields that
tagging never read) no longer load: retrain them.

The components of a composite are trained on the same tokens, so they
repeat columns and symbol tables.  A ``save_*`` call stores each distinct
one once, through one ``learner.BundleStore``, and writes the array file
whole; a ``load_*`` call parses the manifest once, decodes each symbol
table once and reads each distinct column once, through one
``learner.BundleReader`` that holds the array file open for the load.
"""

import dataclasses
import json
import os
import types
from enum import Enum

from .errors import BundleFault, DomainError
from .features import FeatureTemplate, format_template, parse_template
from .learner import BundleReader, BundleStore, Model, json_value, load_model, save_model
from .pipeline import Chunker, ClauseBracketer, FullParser, NpParser, TypedChunker

_FORMAT = 7


def _dump(value, store: BundleStore):
    """``value`` as JSON data, its models' columns and tables put in ``store``."""
    if isinstance(value, Model):
        return save_model(value, store)
    if isinstance(value, FeatureTemplate):
        return format_template(value)
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
        return {"class": type(value).__name__,
                **{k: _dump(v, store) for k, v in items if v is not None}}
    if isinstance(value, dict):
        return {k.value if isinstance(k, Enum) else k: _dump(v, store) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_dump(v, store) for v in value]
    return value


def _load(kind, data, place: str, arrays: BundleReader):
    """The value of annotation ``kind`` that the JSON ``data`` holds; ``place``
    is the field names and keys that lead to it, each followed by a dot.  A
    value that does not read as ``kind`` (a JSON type, enum value, class or
    template that does not belong, a field it lacks, or parts that do not
    fit one another) is a fault at ``place``."""
    try:
        return _read(kind, data, place, arrays)
    except BundleFault:  # placed further in
        raise
    except KeyError as exc:
        raise arrays.fault(place[:-1] or "manifest", f"lacks {exc}") from None
    except ValueError as exc:
        raise arrays.fault(place[:-1] or "manifest", str(exc)) from None


def _read(kind, data, place: str, arrays: BundleReader):
    """``_load`` without placing its own faults."""
    if kind is Model:
        return load_model(data, place[:-1], arrays)
    if kind is FeatureTemplate:
        return parse_template(json_value(data, str))
    if isinstance(kind, type) and issubclass(kind, Enum):
        return kind(json_value(data, str))
    origin, args = getattr(kind, "__origin__", None), getattr(kind, "__args__", ())
    if origin is dict:
        return {_load(args[0], k, place, arrays): _load(args[1], v, f"{place}{k}.", arrays)
                for k, v in json_value(data, dict).items()}
    if origin in (list, tuple):
        return origin(_load(args[0], v, f"{place}{i}.", arrays)
                      for i, v in enumerate(json_value(data, list)))
    if isinstance(kind, types.UnionType):  # an optional value, or one of some classes
        options = [a for a in args if a is not type(None)]
        if len(options) == 1:
            return _load(options[0], data, place, arrays)
    elif not dataclasses.is_dataclass(kind):
        return json_value(data, kind)
    else:
        options = [kind]
    name = json_value(json_value(data, dict)["class"], str)
    cls = next((c for c in options if c.__name__ == name), None)
    if cls is None:
        raise ValueError(f"a {name!r} where a {' or '.join(c.__name__ for c in options)} belongs")
    unread = data.keys() - {"class", *(f.name for f in dataclasses.fields(cls))}
    if unread:
        raise ValueError(f"{name} has no field {min(unread)!r}")
    values = {
        f.name: _load(f.type, data[f.name], f"{place}{f.name}.", arrays)
        for f in dataclasses.fields(cls)
        if f.name in data or f.default is dataclasses.MISSING
    }
    return cls(**values)


def _save_bundle(composite, path) -> None:
    os.makedirs(path, exist_ok=True)
    store = BundleStore()
    manifest = {"format": _FORMAT, **_dump(composite, store), "symbols": store.symbols}
    store.write(os.path.join(path, "arrays.npy"))
    with open(os.path.join(path, "manifest"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, separators=(",", ":")) + "\n")


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
    if not isinstance(manifest, dict) or manifest.pop("format", None) != _FORMAT:
        raise DomainError(f"{path}: unsupported bundle format")
    array_file = os.path.join(path, "arrays.npy")
    try:
        symbols = json_value(manifest.pop("symbols"), list)
        with open(array_file, "rb") as fh:
            return _load(kind, manifest, "", BundleReader(path, symbols, fh))
    except FileNotFoundError:
        raise DomainError(f"{array_file}: no such array file") from None
    except KeyError as exc:
        raise DomainError(f"{path}: manifest lacks {exc}") from None
    except ValueError as exc:
        if str(exc).startswith(str(path)):  # names the bundle or its array file
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
