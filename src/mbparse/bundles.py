"""Saving and loading composite models as a directory of model files.

A bundle directory holds one ``manifest`` (INI) describing the composite,
one model header per component and one array file, ``arrays.npy``, that the
headers slice (see ``learner``), all at its top level.  Reloaded bundles
behave extensionally the same as the originals.  Bundles of an earlier
manifest format (1: models as text; 2: one ``.npy`` file per array) no
longer load: retrain them.

The components of a composite are trained on the same tokens, so their
headers repeat columns.  A ``save_*`` call stores each distinct array once
in the bundle's array file, which it writes whole; a ``load_*`` call reads
that file's header once and each distinct array in it once, through one
cache that it hands ``learner.load_model``.
"""

from __future__ import annotations

import configparser
import functools
import os

from .errors import DomainError
from .features import parse_template, format_template
from .learner import ArrayFile, load_model, save_model
from .pipeline import (
    BracketLevel,
    Chunker,
    ClauseBracketer,
    DoublePhaseChunker,
    FullParser,
    NpParser,
    NPhaseChunker,
    PipelineConfig,
    SinglePhaseChunker,
    TwoPassStream,
    TypedChunker,
)
from .schemes import MatchMode, Scheme

_FORMAT = "3"


def _new_manifest() -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    return parser


def _manifest_errors(load):
    """Report a manifest with a missing or malformed entry as a DomainError."""

    @functools.wraps(load)
    def checked(path):
        try:
            return load(path)
        except DomainError:  # already names the file at fault
            raise
        except KeyError as exc:
            raise DomainError(f"{path}: manifest lacks {exc}") from None
        except (ValueError, configparser.Error) as exc:
            detail = " ".join(str(exc).split())  # parser errors span lines
            raise DomainError(f"{path}: malformed bundle: {detail}") from None

    return checked


def _read_manifest(path, kind: str) -> configparser.ConfigParser:
    parser = _new_manifest()
    manifest = os.path.join(path, "manifest")
    if not os.path.isfile(manifest):
        raise DomainError(f"{path}: not a model bundle (no manifest)")
    with open(manifest, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    if parser.get("bundle", "format", fallback=None) != _FORMAT:
        raise DomainError(f"{path}: unsupported bundle format")
    if parser["bundle"]["kind"] != kind:
        raise DomainError(f"{path}: bundle holds a {parser['bundle']['kind']}, expected {kind}")
    return parser


def _finish_bundle(parser: configparser.ConfigParser, path, arrays: ArrayFile) -> None:
    arrays.write(path)
    with open(os.path.join(path, "manifest"), "w", encoding="utf-8") as fh:
        parser.write(fh)


def _save_stream(stream: TwoPassStream, path, prefix: str, manifest, arrays) -> None:
    section = f"stream {prefix}"
    manifest.add_section(section)
    manifest[section]["scheme"] = stream.scheme.value
    manifest[section]["pass1_template"] = format_template(stream.pass1_template)
    manifest[section]["pass1_model"] = f"{prefix}.pass1.model"
    save_model(stream.pass1_model, os.path.join(path, f"{prefix}.pass1.model"), arrays)
    if stream.pass2_model is not None:
        manifest[section]["pass2_template"] = format_template(stream.pass2_template)
        manifest[section]["pass2_model"] = f"{prefix}.pass2.model"
        save_model(stream.pass2_model, os.path.join(path, f"{prefix}.pass2.model"), arrays)


def _load_stream(path, prefix: str, manifest, cache: dict) -> TwoPassStream:
    section = manifest[f"stream {prefix}"]
    pass2_model = None
    pass2_template = None
    if "pass2_model" in section:
        pass2_model = load_model(os.path.join(path, section["pass2_model"]), cache)
        pass2_template = parse_template(section["pass2_template"])
    return TwoPassStream(
        scheme=Scheme(section["scheme"]),
        pass1_template=parse_template(section["pass1_template"]),
        pass1_model=load_model(os.path.join(path, section["pass1_model"]), cache),
        pass2_template=pass2_template,
        pass2_model=pass2_model,
    )


def _save_chunker_into(chunker: Chunker, path, prefix: str, manifest, arrays) -> None:
    section = f"chunker {prefix}" if prefix else "chunker"
    manifest.add_section(section)
    cfg = chunker.config
    manifest[section]["representations"] = " ".join(
        r.value for r in cfg.representations
    )
    manifest[section]["typed"] = str(int(cfg.typed))
    manifest[section]["default_type"] = cfg.default_type
    manifest[section]["match_mode"] = cfg.match_mode.value
    manifest[section]["streams"] = " ".join(s.value for s in chunker.streams)
    for scheme in chunker.streams:
        name = f"{prefix}.{scheme.value}" if prefix else scheme.value
        _save_stream(chunker.streams[scheme], path, name, manifest, arrays)


def _load_chunker_from(path, prefix: str, manifest, cache: dict) -> Chunker:
    section = manifest[f"chunker {prefix}" if prefix else "chunker"]
    reps = tuple(Scheme(v) for v in section["representations"].split())
    cfg = PipelineConfig(
        representations=reps,
        typed=bool(int(section["typed"])),
        default_type=section["default_type"],
        match_mode=MatchMode(section["match_mode"]),
    )
    streams = {}
    for value in section["streams"].split():
        scheme = Scheme(value)
        name = f"{prefix}.{value}" if prefix else value
        streams[scheme] = _load_stream(path, name, manifest, cache)
    return Chunker(streams=streams, config=cfg)


def _start_bundle(path, kind: str) -> tuple[configparser.ConfigParser, ArrayFile]:
    os.makedirs(path, exist_ok=True)
    manifest = _new_manifest()
    manifest.add_section("bundle")
    manifest["bundle"]["format"] = _FORMAT
    manifest["bundle"]["kind"] = kind
    return manifest, ArrayFile("arrays.npy")


def save_chunker(chunker: Chunker, path) -> None:
    manifest, arrays = _start_bundle(path, "chunker")
    _save_chunker_into(chunker, path, "", manifest, arrays)
    _finish_bundle(manifest, path, arrays)


@_manifest_errors
def load_chunker(path) -> Chunker:
    manifest = _read_manifest(path, "chunker")
    return _load_chunker_from(path, "", manifest, {})


def _save_typed_into(chunker: TypedChunker, path, manifest, arrays) -> None:
    bundle = manifest["bundle"]
    if isinstance(chunker, SinglePhaseChunker):
        bundle["strategy"] = "single_phase"
        _save_chunker_into(chunker.chunker, path, "typed", manifest, arrays)
    elif isinstance(chunker, DoublePhaseChunker):
        bundle["strategy"] = "double_phase"
        _save_chunker_into(chunker.boundary, path, "boundary", manifest, arrays)
        bundle["type_model"] = "type.model"
        save_model(chunker.type_model, os.path.join(path, "type.model"), arrays)
    elif isinstance(chunker, NPhaseChunker):
        bundle["strategy"] = "n_phase"
        bundle["types"] = " ".join(chunker.type_order)
        for typ in chunker.type_order:
            _save_chunker_into(chunker.per_type[typ], path, f"type-{typ}", manifest, arrays)
    else:
        raise DomainError(f"unknown typed chunker {type(chunker).__name__}")


def _load_typed_from(path, manifest, cache: dict) -> TypedChunker:
    bundle = manifest["bundle"]
    strategy = bundle["strategy"]
    if strategy == "single_phase":
        return SinglePhaseChunker(_load_chunker_from(path, "typed", manifest, cache))
    if strategy == "double_phase":
        return DoublePhaseChunker(
            boundary=_load_chunker_from(path, "boundary", manifest, cache),
            type_model=load_model(os.path.join(path, bundle["type_model"]), cache),
        )
    order = tuple(bundle["types"].split())
    per_type = {
        typ: _load_chunker_from(path, f"type-{typ}", manifest, cache) for typ in order
    }
    return NPhaseChunker(per_type=per_type, type_order=order)


def save_typed_chunker(chunker: TypedChunker, path) -> None:
    manifest, arrays = _start_bundle(path, "typed-chunker")
    _save_typed_into(chunker, path, manifest, arrays)
    _finish_bundle(manifest, path, arrays)


@_manifest_errors
def load_typed_chunker(path) -> TypedChunker:
    manifest = _read_manifest(path, "typed-chunker")
    return _load_typed_from(path, manifest, {})


def save_clause_bracketer(bracketer: ClauseBracketer, path) -> None:
    manifest, arrays = _start_bundle(path, "clauses")
    manifest["bundle"]["open_templates"] = " | ".join(
        format_template(t) for t in bracketer.open_templates
    )
    manifest["bundle"]["close_template"] = format_template(bracketer.close_template)
    manifest["bundle"]["open_models"] = " ".join(
        f"open{i}.model" for i in range(len(bracketer.open_models))
    )
    for i, model in enumerate(bracketer.open_models):
        save_model(model, os.path.join(path, f"open{i}.model"), arrays)
    manifest["bundle"]["close_model"] = "close.model"
    save_model(bracketer.close_model, os.path.join(path, "close.model"), arrays)
    _finish_bundle(manifest, path, arrays)


@_manifest_errors
def load_clause_bracketer(path) -> ClauseBracketer:
    manifest = _read_manifest(path, "clauses")
    cache: dict = {}
    open_models = tuple(
        load_model(os.path.join(path, name), cache)
        for name in manifest["bundle"]["open_models"].split()
    )
    close_model = load_model(os.path.join(path, manifest["bundle"]["close_model"]), cache)
    return ClauseBracketer(
        open_models=open_models,
        close_model=close_model,
        open_templates=tuple(
            parse_template(t)
            for t in manifest["bundle"]["open_templates"].split(" | ")
        ),
        close_template=parse_template(manifest["bundle"]["close_template"]),
    )


def _save_levels(levels, path, manifest, arrays) -> None:
    manifest["bundle"]["levels"] = str(len(levels))
    for i, level in enumerate(levels, 1):
        section = f"level {i}"
        manifest.add_section(section)
        manifest[section]["template"] = format_template(level.template)
        manifest[section]["default_type"] = level.default_type
        manifest[section]["open_model"] = f"level{i:02d}.open.model"
        manifest[section]["close_model"] = f"level{i:02d}.close.model"
        save_model(level.open_model, os.path.join(path, f"level{i:02d}.open.model"), arrays)
        save_model(level.close_model, os.path.join(path, f"level{i:02d}.close.model"), arrays)


def _load_levels(path, manifest, cache: dict) -> list[BracketLevel]:
    count = int(manifest["bundle"]["levels"])
    levels = []
    for i in range(1, count + 1):
        section = manifest[f"level {i}"]
        levels.append(
            BracketLevel(
                template=parse_template(section["template"]),
                open_model=load_model(os.path.join(path, section["open_model"]), cache),
                close_model=load_model(os.path.join(path, section["close_model"]), cache),
                default_type=section["default_type"],
            )
        )
    return levels


def save_np_parser(parser: NpParser, path) -> None:
    manifest, arrays = _start_bundle(path, "np-parser")
    manifest["bundle"]["match_mode"] = parser.match_mode.value
    _save_chunker_into(parser.base, path, "base", manifest, arrays)
    _save_levels(parser.levels, path, manifest, arrays)
    _finish_bundle(manifest, path, arrays)


@_manifest_errors
def load_np_parser(path) -> NpParser:
    manifest = _read_manifest(path, "np-parser")
    cache: dict = {}
    return NpParser(
        base=_load_chunker_from(path, "base", manifest, cache),
        levels=_load_levels(path, manifest, cache),
        match_mode=MatchMode(manifest["bundle"]["match_mode"]),
    )


def save_full_parser(parser: FullParser, path) -> None:
    manifest, arrays = _start_bundle(path, "full-parser")
    manifest["bundle"]["match_mode"] = parser.match_mode.value
    _save_typed_into(parser.base, path, manifest, arrays)
    _save_levels(parser.levels, path, manifest, arrays)
    _finish_bundle(manifest, path, arrays)


@_manifest_errors
def load_full_parser(path) -> FullParser:
    manifest = _read_manifest(path, "full-parser")
    cache: dict = {}
    return FullParser(
        base=_load_typed_from(path, manifest, cache),
        levels=_load_levels(path, manifest, cache),
        match_mode=MatchMode(manifest["bundle"]["match_mode"]),
    )
