"""``load_model`` against the line-by-line reader it replaced.

``line_by_line_load_model`` is the earlier reader, kept verbatim as the
reference: it splits the file into lines, splits each instance line and
builds one ``Instance`` per line.  On any model file whose symbols hold no
line boundary other than "\\n" (the earlier reader also split on "\\r" and
the other breaks ``str.splitlines`` knows, which ``save_model`` leaves
unescaped), both readers must give the same instances, weights, config and
class frequencies, or fail with the same ``DomainError`` message.
"""

import math
import os
import tempfile
from collections import Counter

from hypothesis import given, settings, strategies as st

from mbparse.errors import DomainError
from mbparse.learner import (
    _FORMAT,
    Instance,
    LearnerConfig,
    Model,
    TiePolicy,
    WeightTable,
    _unescape,
    load_model,
)


def line_by_line_load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _FORMAT:
        raise DomainError(f"{path}: not a {_FORMAT!r} file")

    # fixed header: one line per field, in save order, then instance lines
    fields = ("arity", "k", "tie-policy", "fallback", "weights", "classes")
    if len(lines) < 1 + len(fields):
        raise DomainError(f"{path}: truncated header")
    header: dict[str, str] = {}
    for key, line in zip(fields, lines[1:]):
        got, _, rest = line.partition(" ")
        if got != key:
            raise DomainError(f"{path}: expected header field {key!r}, got {got!r}")
        header[key] = rest
    body = 1 + len(fields)

    class_fields = header["classes"].split("\t")
    if len(class_fields) % 2 != 0:
        raise DomainError(f"{path}: malformed class-frequency line")
    try:
        arity = int(header["arity"])
        config = LearnerConfig(
            k=int(header["k"]),
            tie_policy=TiePolicy(header["tie-policy"]),
            degenerate_weight_fallback=bool(int(header["fallback"])),
        )
        weights = tuple(float(w) for w in header["weights"].split())
        freqs = {
            _unescape(class_fields[i]): int(class_fields[i + 1])
            for i in range(0, len(class_fields), 2)
        }
    except ValueError as exc:
        raise DomainError(f"{path}: bad header value: {exc}") from None
    if len(weights) != arity:
        raise DomainError(f"{path}: weight line does not match arity")
    if not all(math.isfinite(w) for w in weights):
        raise DomainError(f"{path}: weights must be finite")

    instances = []
    for line in lines[body:]:
        if not line:
            continue
        fields = line.split("\t")
        if "\\" in line:
            fields = [_unescape(f) for f in fields]
        if len(fields) != arity + 1:
            raise DomainError(f"{path}: instance line has {len(fields)} fields")
        instances.append(Instance(tuple(fields[:arity]), fields[arity]))
    if not instances:
        raise DomainError(f"{path}: model stores no instances")
    if Counter(inst.label for inst in instances) != freqs:
        raise DomainError(f"{path}: class frequencies do not match the instance labels")

    return Model(
        instances=tuple(instances),
        weight_table=WeightTable(weights),  # stored weights include any fallback
        config=config,
        class_frequencies=freqs,
    )


# Cells mix plain letters, spaces and backslashes, so they hold the escapes
# "\\\\", "\\t" and "\\n", unknown escapes such as "\\a" and a lone trailing "\\".
CELLS = st.text(alphabet="ab tn\\", max_size=4)


# Header values that must be rejected, per header field.
BAD_VALUES = {
    "format": ["knn-model 2", ""],
    "arity": ["two", "-1"],
    "k": ["0", "x"],
    "tie-policy": ["coin_flip"],
    "fallback": ["yes"],
}
DEFECTS = (
    *BAD_VALUES,
    "no features",
    "no rows",
    "field count",
    "weight value",
    "weight count",
    "class line",
    "class count",
    "class name",
    "missing header line",
    "misnamed header line",
)


@st.composite
def model_files(draw):
    """The text of a model file, well formed or with one defect from
    ``DEFECTS``; blank lines may fall anywhere after the header."""
    defect = draw(st.sampled_from((None,) * len(DEFECTS) + DEFECTS))
    arity = 0 if defect == "no features" else draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(CELLS, min_size=arity + 1, max_size=arity + 1),
            min_size=1,
            max_size=7,
        )
    )
    if defect == "no rows":
        rows = []
    counts = Counter(row[-1] for row in rows) or Counter(a=0)
    if defect == "class count":
        counts[draw(st.sampled_from(sorted(counts)))] += draw(st.sampled_from([-1, 1]))
    if defect == "class name":  # same total, but a class no row has
        counts[draw(CELLS.filter(lambda c: c not in counts))] = counts.pop(
            draw(st.sampled_from(sorted(counts)))
        )
    if defect == "field count":
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["x"]

    weights = draw(
        st.lists(st.sampled_from(["0.5", "1.0", "0.0", "0.25", "1e308"]),
                 min_size=arity, max_size=arity)
    )
    if defect == "weight value":
        weights[draw(st.integers(0, arity - 1))] = draw(
            st.sampled_from(["nan", "inf", "-inf", "heavy"])
        )
    if defect == "weight count":
        weights = weights[:-1] if draw(st.booleans()) else weights + ["0.5"]
    classes = "\t".join(f"{c}\t{n}" for c, n in sorted(counts.items()))
    if defect == "class line":
        classes = draw(st.sampled_from([classes + "\tX", classes + "\tX\tmany"]))
    header = {
        "format": _FORMAT,
        "arity": str(arity),
        "k": draw(st.sampled_from(["1", "3"])),
        "tie-policy": draw(st.sampled_from([p.value for p in TiePolicy])),
        "fallback": draw(st.sampled_from(["0", "1"])),
        "weights": " ".join(weights),
        "classes": classes,
    }
    if defect in BAD_VALUES:
        header[defect] = draw(st.sampled_from(BAD_VALUES[defect]))
    lines = [header.pop("format")] + [f"{key} {value}" for key, value in header.items()]
    if defect == "missing header line":
        del lines[draw(st.integers(1, len(lines) - 1))]
        rows = rows if draw(st.booleans()) else []  # without rows, a truncated header
    if defect == "misnamed header line":
        i = draw(st.integers(1, len(lines) - 1))
        lines[i] = "weight " + lines[i].partition(" ")[2]
    end_of_header = len(lines)
    lines += ["\t".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(end_of_header, len(lines))), "")
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def outcome(load, path):
    try:
        model = load(path)
    except DomainError as exc:
        return ("error", str(exc))
    return (
        "model",
        list(model.instances),
        model.weight_table,
        model.config,
        list(model.class_frequencies.items()),
    )


@settings(max_examples=600, deadline=None)
@given(model_files())
def test_loader_matches_line_by_line_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.model")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert outcome(load_model, path) == outcome(line_by_line_load_model, path)
