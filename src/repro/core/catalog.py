"""The meta table (Section IV-D).

The paper stores table metadata in MySQL for transactional updates and
fast listing; this catalog reproduces that role in-process.  It is the
one ordered map from name to relation: stored tables (common and
plugin), cached and materialized views, and the read-only ``sys.*``
system tables.  Every relation answers ``name``, ``kind``, ``columns()``
and ``describe()``; the map enforces unique names and keeps creation
order, and a lookup may name the kinds it accepts, so ``DROP TABLE`` on
a view fails without touching it.
"""

from __future__ import annotations

from repro.errors import TableExistsError, TableNotFoundError

#: Relation kinds stored in the key-value store (``SHOW TABLES``).
TABLE_KINDS = ("common", "plugin")
#: Relation kinds served from memory by a view scan (``SHOW VIEWS``).
VIEW_KINDS = ("view", "materialized_view")


class Catalog:
    """Name -> relation, unique names, creation order."""

    def __init__(self) -> None:
        self._relations: dict[str, object] = {}

    def create(self, relation):
        if relation.name in self._relations:
            raise TableExistsError(relation.name)
        self._relations[relation.name] = relation
        return relation

    def replace(self, relation) -> None:
        """Create, or replace a relation of the same kind in place.

        Used by the ``sys.*`` system tables, whose providers are
        re-registered when the service layer wraps the engine.
        """
        existing = self._relations.get(relation.name)
        if existing is not None and existing.kind != relation.kind:
            raise TableExistsError(relation.name)
        self._relations[relation.name] = relation

    def get(self, name: str, kinds: tuple[str, ...] | None = None):
        relation = self._relations.get(name)
        if relation is None or (kinds is not None
                                and relation.kind not in kinds):
            raise TableNotFoundError(name)
        return relation

    def drop(self, name: str, kinds: tuple[str, ...] | None = None):
        relation = self.get(name, kinds)
        del self._relations[name]
        return relation

    def exists(self, name: str,
               kinds: tuple[str, ...] | None = None) -> bool:
        relation = self._relations.get(name)
        return relation is not None and (kinds is None
                                         or relation.kind in kinds)

    def list(self, prefix: str = "",
             kinds: tuple[str, ...] | None = None) -> list:
        """Relations whose name starts with ``prefix``, in creation
        order."""
        return [r for name, r in self._relations.items()
                if name.startswith(prefix)
                and (kinds is None or r.kind in kinds)]

    def resolve(self, name: str, namespace: str = ""):
        """The relation a statement's ``name`` denotes in ``namespace``:
        a system table by its bare name (``sys.*`` lives outside user
        namespaces), anything else by ``namespace + name``."""
        relation = self._relations.get(name)
        if relation is None or relation.kind != "system":
            relation = self.get(namespace + name)
        return relation
