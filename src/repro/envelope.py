"""The request envelope: the rules every request schema shares.

:class:`repro.api.SimRequest` and :class:`repro.optimize.OptimizeRequest`
are frozen dataclasses over one :class:`Envelope` base, which holds what
the two schemas must agree on, written once:

- serialisation: ``to_dict``/``to_json`` and a strict
  ``from_dict``/``from_json`` (:func:`decode`: unknown keys rejected with
  a did-you-mean hint, lists rebuilt as tuples, nested dataclasses
  rebuilt recursively; the serving config decodes through it too);
- identity: :meth:`Envelope.digest`, in which ``timeout_s`` never counts;
- the shared construction steps: a per-field type check, kind aliases,
  catalog lookups and serving normalisation.

Fields the CLI sets declare their flag once, as dataclass metadata
(:func:`flag`), so ``repro.cli`` builds requests and rewrites error
messages from the schema itself.

Only :mod:`repro.suggest` is imported at module level; the catalog,
store and serving modules are imported by the methods that need them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import sys
from collections.abc import Mapping, Sequence
from typing import Any

from repro.suggest import normalize_name, unknown_name_message

__all__ = ["Envelope", "decode", "flag"]

#: Kind spellings every schema accepts.
KIND_ALIASES = {"train": "training", "infer": "inference", "serve": "serving"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def flag(spelling: str, default: Any) -> Any:
    """A field the CLI sets from ``spelling`` (whose argparse dest is
    the spelling in snake_case: ``--global-batch`` -> ``global_batch``)."""
    return dataclasses.field(default=default, metadata={"flag": spelling})


# -- field types ------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


def _is_sequence(value) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, str)


#: Field annotation, as written (the modules defining these dataclasses
#: postpone annotations, so they stay strings) -> (types that pass
#: outright, the full check, what the error says the field must be).
#: Reading the strings keeps construction cheap: resolving them with
#: ``typing.get_type_hints`` costs more than building a request, and a
#: request is often built once per process. Fields annotated otherwise
#: are left to their own validators.
_CHECKS = {
    "bool": ({bool}, lambda value: isinstance(value, bool), "a bool"),
    "int": ({int}, _is_int, "an integer"),
    "float": ({float, int}, _is_number, "a number"),
    "tuple[int, ...]": ({tuple, list}, _is_sequence, "a sequence"),
    "tuple[str, ...]": ({tuple, list}, _is_sequence, "a sequence"),
}
_CHECKS.update({
    f"{annotation} | None": (exact | {type(None)}, check, expected)
    for annotation, (exact, check, expected) in _CHECKS.items()
})

_SCALARS = (str, int, float, type(None))

#: Per dataclass: ``(field, *rule)`` for each field ``_CHECKS`` covers.
_RULES: dict[type, list] = {}


def check_types(cls, values: Mapping[str, Any]) -> None:
    """Reject values of the wrong type for ``cls``'s fields.

    ``bool`` and ``str`` are not numbers, only ``bool`` is a bool, and a
    tuple field takes any non-string sequence. Ints stay valid (and
    unconverted) in float fields, so no request changes identity.
    Fields missing from ``values`` are not checked.
    """
    rules = _RULES.get(cls)
    if rules is None:
        rules = _RULES[cls] = [
            (spec.name, *_CHECKS[spec.type])
            for spec in dataclasses.fields(cls)
            if spec.type in _CHECKS
        ]
    for name, exact, check, expected in rules:
        if name in values:
            value = values[name]
            if type(value) not in exact and not check(value):
                raise ValueError(
                    f"{name} must be {expected}, got {value!r}"
                )


def decode(cls, data: Mapping[str, Any], label: str):
    """Build dataclass ``cls`` from plain data (``to_dict``'s inverse).

    Unknown keys raise with a did-you-mean hint (``unknown <label>
    field``), lists become tuples in tuple fields, and mappings in
    fields annotated with a dataclass of ``cls``'s module are decoded
    recursively, their errors prefixed with the field name.
    """
    annotations = {spec.name: spec.type for spec in dataclasses.fields(cls)}
    kwargs: dict = {}
    for key, value in data.items():
        if key not in annotations:
            raise ValueError(
                unknown_name_message(f"{label} field", key,
                                     sorted(annotations))
            )
        if isinstance(value, list) and annotations[key].startswith("tuple"):
            value = tuple(value)
        elif isinstance(value, Mapping):
            nested = vars(sys.modules[cls.__module__]).get(annotations[key])
            if dataclasses.is_dataclass(nested):
                try:
                    value = decode(nested, value, key)
                except ValueError as error:
                    raise ValueError(f"{key}: {error}") from None
        kwargs[key] = value
    if not issubclass(cls, Envelope):  # envelopes check on construction
        check_types(cls, kwargs)
    return cls(**kwargs)


class Envelope:
    """Base of the frozen request dataclasses.

    Subclasses declare ``kind``, ``model``, ``cluster``, ``serving`` and
    ``timeout_s`` fields, set ``_kinds`` (accepted kinds) and ``_noun``
    (how errors name the schema), and call ``super().__post_init__()``
    before their own rules.
    """

    _kinds: tuple[str, ...] = ()
    _noun = "request"

    def __post_init__(self) -> None:
        check_types(type(self), vars(self))
        kind = normalize_name(str(self.kind))
        kind = KIND_ALIASES.get(kind, kind)
        if kind not in self._kinds:
            raise ValueError(
                unknown_name_message(f"{self._noun} kind", self.kind,
                                     self._kinds)
            )
        object.__setattr__(self, "kind", kind)
        if self.timeout_s is not None:
            _require(self.timeout_s > 0,
                     f"timeout_s must be > 0, got {self.timeout_s:g}")

    def _check_catalog(self, noun: str):
        """Require a model and a cluster that the catalogs know;
        returns the cluster spec."""
        from repro.hardware.cluster import get_cluster
        from repro.models.catalog import get_model

        for name in ("model", "cluster"):
            if not getattr(self, name):
                raise ValueError(f"{noun} requests require a {name}")
        try:
            get_model(self.model)
            return get_cluster(self.cluster)
        except KeyError as error:
            raise ValueError(error.args[0]) from None

    def _serving_config(self):
        """The ``serving`` field (a mapping, a ``ServingConfig`` or
        None for the defaults) as a ``ServingConfig``."""
        from repro.inferserve.config import ServingConfig

        payload = {} if self.serving is None else self.serving
        if isinstance(payload, ServingConfig):
            return payload
        _require(isinstance(payload, Mapping),
                 "serving parameters must be a mapping or a ServingConfig")
        try:
            return ServingConfig.from_dict(payload)
        except (TypeError, ValueError) as error:
            raise ValueError(f"serving: {error}") from None

    @property
    def cacheable(self) -> bool:
        """Whether results land in the content-addressed store."""
        return True

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-serialisable dict; inverse of :meth:`from_dict`."""
        data: dict = {}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            elif not isinstance(value, _SCALARS) and (
                dataclasses.is_dataclass(value)
            ):
                value = dataclasses.asdict(value)
            data[spec.name] = value
        return data

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Rebuild a request, rejecting unknown keys with did-you-mean."""
        return decode(cls, data, cls._noun)

    @classmethod
    def from_json(cls, text: str):
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid request JSON: {error}") from None
        _require(isinstance(data, dict), "request JSON must be an object")
        return cls.from_dict(data)

    def digest(self) -> str:
        """Stable identity hash. For cacheable requests it is exactly
        the result-store address :func:`repro.core.sweep.cached_run`
        writes to, so a digest match *is* a cache hit. ``timeout_s``
        is not identity: it bounds the wait, not the answer."""
        if self.cacheable:
            from repro.core.sweep import cache_key, key_digest

            return key_digest(cache_key(*self.to_run_payload()))
        data = self.to_dict()
        data["timeout_s"] = None
        return hashlib.sha256(
            json.dumps(data, sort_keys=True).encode()
        ).hexdigest()
