"""Named registries and string-spec construction for the pluggable API.

Every mechanism, attack evaluator and metric of the reproduction registers
itself under a short name; experiment code then refers to components *by
string spec* rather than by concrete class:

>>> from repro.api import make_mechanism, list_mechanisms
>>> mechanism = make_mechanism("geo-ind:epsilon_per_m=0.005,seed=7")
>>> result = mechanism.publish(dataset)          # -> PublicationResult

A spec is ``name`` or ``name:key=value,key=value`` where values are parsed as
int, float, bool (``true``/``false``), ``none`` or plain strings.  Mechanism
specs may additionally chain stages with ``|``
(``"smoothing:epsilon_m=100|pseudonyms"``), which builds a
:class:`~repro.api.adapters.ChainMechanism`.

Because specs are plain strings they are picklable, hashable and loggable —
the properties the :class:`~repro.experiments.engine.EvaluationEngine` relies
on for multiprocessing fan-out and per-cell caching.

Registration uses decorators, applied next to each implementation::

    @register_mechanism("geo-ind")
    def _geo_ind(epsilon_per_m=..., per_point_budget=True, seed=0):
        return GeoIndistinguishabilityMechanism(GeoIndConfig(...))

Factories declare explicit keyword parameters: the declared names are the
public spec surface, and engine-level defaults (the ``seeds`` axis) are only
injected into factories that declare the corresponding parameter.
"""

from __future__ import annotations

import difflib
import inspect
import threading
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

if TYPE_CHECKING:
    from .stages import StageMemo

__all__ = [
    "RegistryError",
    "Registry",
    "parse_spec",
    "format_spec",
    "MECHANISMS",
    "ATTACKS",
    "METRICS",
    "register_mechanism",
    "register_attack",
    "register_metric",
    "make_mechanism",
    "make_attack",
    "make_metric",
    "list_mechanisms",
    "list_attacks",
    "list_metrics",
]


class RegistryError(ValueError):
    """Unknown name, malformed spec or invalid parameters for a registry."""


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


def _convert_value(token: str) -> Any:
    text = token.strip()
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Split ``"name:key=value,key=value"`` into ``(name, params)``."""
    if not isinstance(spec, str):
        raise RegistryError(f"spec must be a string, got {type(spec).__name__}")
    name, _, tail = spec.partition(":")
    name = name.strip()
    if not name:
        raise RegistryError(f"empty component name in spec {spec!r}")
    params: Dict[str, Any] = {}
    for pair in tail.split(","):
        pair = pair.strip()
        if not pair:
            continue
        key, eq, value = pair.partition("=")
        key = key.strip()
        if not eq or not key:
            raise RegistryError(
                f"malformed parameter {pair!r} in spec {spec!r}; expected key=value"
            )
        params[key] = _convert_value(value)
    return name, params


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)  # full precision, round-trips through float()
    return str(value)


def format_spec(name: str, params: Optional[Mapping[str, Any]] = None) -> str:
    """The inverse of :func:`parse_spec` (used to build specs programmatically)."""
    if not params:
        return name
    return name + ":" + ",".join(f"{k}={_format_value(v)}" for k, v in params.items())


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Characters the spec grammar splits on: ``name:key=value,key=value|next``.
_RESERVED = ":,=|"


def _is_spec_name(name: str) -> bool:
    """Whether ``name`` survives a trip through a spec string unchanged."""
    return bool(name) and not any(ch.isspace() or ch in _RESERVED for ch in name)


class Registry:
    """A case-insensitive name -> factory mapping with spec-based construction."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: Dict[str, Callable[..., Any]] = {}
        #: key -> the full (primary, *aliases) key group it was registered in.
        self._groups: Dict[str, Tuple[str, ...]] = {}
        self._primary: List[str] = []
        self._lock = threading.Lock()

    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        aliases: Iterable[str] = (),
    ) -> Callable[..., Any]:
        """Register ``factory`` under ``name`` (usable as a decorator)."""

        def decorate(factory: Callable[..., Any]) -> Callable[..., Any]:
            candidates = (name, *aliases)
            for candidate in candidates:
                if not _is_spec_name(candidate):
                    raise RegistryError(
                        f"{self.kind} name {candidate!r} cannot be spelled in a "
                        f"spec: it must be non-empty, without whitespace or "
                        f"any of {_RESERVED!r}"
                    )
            keys = [candidate.lower() for candidate in candidates]
            with self._lock:
                # Validate every key before inserting any, so a collision
                # cannot leave a partial registration behind.
                for candidate, key in zip(candidates, keys):
                    if key in self._factories:
                        raise RegistryError(
                            f"{self.kind} {candidate!r} is already registered"
                        )
                group = tuple(keys)
                for key in keys:
                    self._factories[key] = factory
                    self._groups[key] = group
                self._primary.append(name.lower())
            return factory

        if factory is not None:
            return decorate(factory)
        return decorate

    def unregister(self, name: str) -> None:
        """Remove a registration (primarily for tests of the plugin surface)."""
        key = name.lower()
        with self._lock:
            group = self._groups.get(key)
            if group is None:
                raise RegistryError(f"{self.kind} {name!r} is not registered")
            # Remove exactly the registration group (primary + its aliases)
            # the name belongs to; other registrations sharing the same
            # factory object are untouched.
            for member in group:
                self._factories.pop(member, None)
                self._groups.pop(member, None)
                if member in self._primary:
                    self._primary.remove(member)

    def names(self) -> List[str]:
        """Sorted primary names (aliases are resolvable but not listed)."""
        return sorted(self._primary)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._factories

    def _resolve(self, name: str) -> Callable[..., Any]:
        factory = self._factories.get(name.lower())
        if factory is None:
            hint = ""
            close = difflib.get_close_matches(name.lower(), list(self._factories), n=1)
            if close:
                hint = f" (did you mean {close[0]!r}?)"
            raise RegistryError(
                f"unknown {self.kind} {name!r}{hint}; registered: "
                + ", ".join(self.names())
            )
        return factory

    @staticmethod
    def _declared_params(factory: Callable[..., Any]) -> FrozenSet[str]:
        try:
            signature = inspect.signature(factory)
        except (TypeError, ValueError):
            return frozenset()
        return frozenset(
            p.name
            for p in signature.parameters.values()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        )

    def declares(self, name: str, param: str) -> bool:
        """Whether the factory registered under ``name`` declares ``param``.

        This is how callers can tell ahead of construction whether an
        injected default would take effect — e.g. the engine detecting that
        a ``mode="stream"`` spec will silently fall back to batch for an
        evaluator without an ``execution`` parameter.
        """
        return param in self._declared_params(self._resolve(name))

    def create(
        self, spec: str, *, defaults: Optional[Mapping[str, Any]] = None
    ) -> Any:
        """Build the component described by ``spec``.

        ``defaults`` are injected only for parameters the factory explicitly
        declares and the spec does not set — this is how the engine threads
        its ``seeds`` axis into seedable components without breaking the ones
        that take no seed.
        """
        name, params = parse_spec(spec)
        return self.create_parsed(name, params, defaults=defaults)

    def create_parsed(
        self,
        name: str,
        params: Dict[str, Any],
        *,
        defaults: Optional[Mapping[str, Any]] = None,
    ) -> Any:
        factory = self._resolve(name)
        if defaults:
            declared = self._declared_params(factory)
            for key, value in defaults.items():
                if key not in params and key in declared:
                    params[key] = value
        try:
            return factory(**params)
        except TypeError as exc:
            raise RegistryError(
                f"invalid parameters for {self.kind} {name!r}: {exc}"
            ) from exc


MECHANISMS = Registry("mechanism")
ATTACKS = Registry("attack")
METRICS = Registry("metric")

register_mechanism = MECHANISMS.register
register_attack = ATTACKS.register
register_metric = METRICS.register


# ---------------------------------------------------------------------------
# Built-in plugin loading
# ---------------------------------------------------------------------------

_BUILTINS_LOADED = False
_BUILTINS_LOCK = threading.Lock()


def _load_builtin_plugins() -> None:
    """Import every module that registers built-in components.

    Deferred so that ``repro.api.registry`` itself has no dependency on the
    packages it serves (they import the decorators from here).
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    with _BUILTINS_LOCK:
        if _BUILTINS_LOADED:
            return
        from .. import baselines, metrics  # noqa: F401  (side effects)
        from . import evaluators  # noqa: F401  (the registered attacks)

        _BUILTINS_LOADED = True


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------


def make_mechanism(
    spec: str,
    *,
    defaults: Optional[Mapping[str, Any]] = None,
    wrap: bool = True,
    memo: Optional["StageMemo"] = None,
) -> Any:
    """Build a mechanism from a spec string.

    The registered object is returned as built; its ``publish()`` returns a
    :class:`~repro.api.result.PublicationResult`.  ``|`` chains stages:
    ``"smoothing:epsilon_m=100|pseudonyms:seed=3"`` builds a
    :class:`~repro.api.adapters.ChainMechanism`.

    ``memo`` is bound to every built stage that is a
    :class:`~repro.api.stages.SharedStages`, so mechanisms built with one
    memo run each shared seedless stage once.

    ``wrap`` is accepted and ignored.  It is kept only because the frozen
    benchmark harness (``perfbench/harness.py``) still passes ``wrap=False``.
    """
    from .adapters import ChainMechanism
    from .stages import SharedStages

    _load_builtin_plugins()
    chained = isinstance(spec, str) and "|" in spec
    parts = [part.strip() for part in spec.split("|") if part.strip()] if chained else [spec]
    if not parts:
        raise RegistryError(f"empty chain spec {spec!r}")
    stages = [MECHANISMS.create(part, defaults=defaults) for part in parts]
    for stage in stages:
        if isinstance(stage, SharedStages):
            stage.memo = memo
    return ChainMechanism(stages) if chained else stages[0]


def make_attack(spec: str, *, defaults: Optional[Mapping[str, Any]] = None) -> Any:
    """Build an attack evaluator (``attack.run(result, context)``) from a spec string."""
    _load_builtin_plugins()
    return ATTACKS.create(spec, defaults=defaults)


def make_metric(spec: str, *, defaults: Optional[Mapping[str, Any]] = None) -> Any:
    """Build a metric callable ``metric(original, result) -> columns``."""
    _load_builtin_plugins()
    return METRICS.create(spec, defaults=defaults)


def list_mechanisms() -> List[str]:
    """Registered mechanism names."""
    _load_builtin_plugins()
    return MECHANISMS.names()


def list_attacks() -> List[str]:
    """Registered attack names."""
    _load_builtin_plugins()
    return ATTACKS.names()


def list_metrics() -> List[str]:
    """Registered metric names."""
    _load_builtin_plugins()
    return METRICS.names()
