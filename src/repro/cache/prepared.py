"""Prepared queries: parse and fingerprint once, execute many times.

``Database.prepare`` front-loads the per-statement work (parsing,
normalization, fingerprinting) and returns a :class:`PreparedQuery` whose
``execute(**params)`` binds values for the ``$name`` placeholders and
runs through the plan cache: the first execution optimizes and stores the
plan template; later executions run that same template with their own
values.

Parameter binding is validated eagerly: missing, unexpected, or
unsupported-type values raise :class:`~repro.errors.ParameterBindingError`
before any optimizer work happens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.cache.fingerprint import bindable, parameterize
from repro.errors import ParameterBindingError
from repro.lang.parser import parse_query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api import Database, QueryResult
    from repro.optimizer.config import OptimizerConfig


class PreparedQuery:
    """A parsed, normalized query awaiting parameter values."""

    def __init__(
        self,
        db: "Database",
        text: str,
        config: "OptimizerConfig | None" = None,
    ) -> None:
        self._db = db
        self._config = config
        self.text = text
        self.parameterized = parameterize(parse_query(text), auto=False)

    @property
    def param_names(self) -> tuple[str, ...]:
        """The ``$name`` placeholders, in order of first appearance."""
        return self.parameterized.user_param_names

    @property
    def cacheable(self) -> bool:
        """False when parameter placement defeats safe plan reuse (the
        query then re-optimizes on every execution)."""
        return self.parameterized.cacheable

    def _consts(self, params: dict[str, Any]) -> tuple:
        """``params`` validated, as the statement's constants in slot
        order (a prepared query's slots are its ``$name`` placeholders)."""
        expected = set(self.param_names)
        provided = set(params)
        missing = sorted(expected - provided)
        extra = sorted(provided - expected)
        if missing or extra:
            problems = []
            if missing:
                problems.append(
                    "missing " + ", ".join(f"${name}" for name in missing)
                )
            if extra:
                problems.append(
                    "unexpected " + ", ".join(f"${name}" for name in extra)
                )
            raise ParameterBindingError(
                f"cannot bind prepared query: {'; '.join(problems)} "
                f"(declared parameters: "
                f"{', '.join(f'${n}' for n in self.param_names) or 'none'})"
            )
        for name, value in params.items():
            if not bindable(value):
                raise ParameterBindingError(
                    f"parameter ${name} has unsupported type "
                    f"{type(value).__name__}; expected int, float, or str"
                )
        return tuple(params[name] for name in self.param_names)

    def execute(self, **params: Any) -> "QueryResult":
        """Bind ``params`` and run the query (through the plan cache)."""
        return self._db._run_statement(
            self.parameterized, self._consts(params), config=self._config
        )

    def explain(self, costs: bool = False, **params: Any) -> str:
        """Bind ``params``, plan (via the cache), and render the plan."""
        result = self._db._run_statement(
            self.parameterized,
            self._consts(params),
            config=self._config,
            execute=False,
        )
        return result.explain(costs=costs)

    def __repr__(self) -> str:
        names = ", ".join(f"${name}" for name in self.param_names) or "no params"
        return f"PreparedQuery({self.text!r}, {names})"


__all__ = ["PreparedQuery"]
