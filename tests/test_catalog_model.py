"""Model-based testing: random DDL against a dict of the catalog.

Random creates and drops of tables, plugin tables, cached views and
materialized views over a small name pool in two user namespaces (plus
re-registration of ``sys.*`` tables) must leave ``SHOW TABLES``,
``SHOW VIEWS``, ``sys.tables``, ``DESC`` and ``FROM`` resolution exactly
as a plain ordered dict of ``name -> (kind, fields, columns)`` predicts.
Every failure must be a typed :class:`~repro.errors.JustError`.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import JustEngine
from repro.core.plugins import TRAJECTORY_SCHEMA
from repro.core.systables import SYSTEM_TABLE_SPECS
from repro.errors import (
    AnalysisError,
    JustError,
    TableExistsError,
    TableNotFoundError,
)

NAMES = ["a", "b", "c"]
NAMESPACES = ["", "u__"]
TABLE_KINDS = ("common", "plugin")
VIEW_KINDS = ("view", "materialized_view")

TABLE_FIELDS = ["fid", "geom"]
PLUGIN_FIELDS = TRAJECTORY_SCHEMA.names
VIEW_COLUMNS = ["name", "kind"]
MVIEW_COLUMNS = ["k", "v"]
SYSTEM_TABLES = {name: list(columns)
                 for name, columns, _types, _doc in SYSTEM_TABLE_SPECS}

names = st.sampled_from(NAMES)
namespaces = st.sampled_from(NAMESPACES)


class CatalogMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.engine = JustEngine(num_servers=2)
        #: full name -> (kind, DESC fields, SELECT * columns)
        self.model: dict[str, tuple[str, list[str], list[str]]] = {}
        #: system table -> rows its provider answers
        self.system_rows = {"sys.sessions": 0}

    def _run(self, statement, namespace, expected_error=None):
        """Run one statement; it fails iff the model says it must, and
        only ever with a typed error."""
        try:
            result = self.engine.sql(statement, namespace=namespace)
        except JustError as exc:
            assert expected_error is not None and \
                isinstance(exc, expected_error), (statement, exc)
            return None
        assert expected_error is None, (statement, "did not fail")
        return result

    def _create(self, full_name, kind, fields, columns, create):
        error = TableExistsError if full_name in self.model else None
        try:
            create()
        except JustError as exc:
            assert error is not None and isinstance(exc, error), exc
            return
        assert error is None, (full_name, "created twice")
        self.model[full_name] = (kind, fields, columns)

    @rule(namespace=namespaces, name=names)
    def create_table(self, namespace, name):
        self._create(namespace + name, "common", TABLE_FIELDS,
                     TABLE_FIELDS, lambda: self.engine.sql(
                         f"CREATE TABLE {name} "
                         "(fid integer:primary key, geom point)",
                         namespace=namespace))

    @rule(namespace=namespaces, name=names)
    def create_plugin_table(self, namespace, name):
        self._create(namespace + name, "plugin", PLUGIN_FIELDS,
                     PLUGIN_FIELDS + ["item"], lambda: self.engine.sql(
                         f"CREATE TABLE {name} AS trajectory",
                         namespace=namespace))

    @rule(namespace=namespaces, name=names)
    def create_view(self, namespace, name):
        self._create(namespace + name, "view", VIEW_COLUMNS, VIEW_COLUMNS,
                     lambda: self.engine.sql(
                         f"CREATE VIEW {name} AS "
                         "SELECT name, kind FROM sys.tables",
                         namespace=namespace))

    @rule(namespace=namespaces, name=names)
    def create_materialized_view(self, namespace, name):
        self._create(namespace + name, "materialized_view", MVIEW_COLUMNS,
                     MVIEW_COLUMNS,
                     lambda: self.engine.create_materialized_view(
                         namespace + name, MVIEW_COLUMNS))

    def _drop(self, namespace, name, keyword, kinds):
        full_name = namespace + name
        entry = self.model.get(full_name)
        droppable = entry is not None and entry[0] in kinds
        self._run(f"DROP {keyword} {name}", namespace,
                  None if droppable else TableNotFoundError)
        if droppable:
            del self.model[full_name]

    @rule(namespace=namespaces, name=names)
    def drop_table(self, namespace, name):
        self._drop(namespace, name, "TABLE", TABLE_KINDS)

    @rule(namespace=namespaces, name=names)
    def drop_view(self, namespace, name):
        self._drop(namespace, name, "VIEW", VIEW_KINDS)

    @rule(name=st.sampled_from(sorted(set(SYSTEM_TABLES) - {"sys.tables"})),
          count=st.integers(0, 3))
    def reregister_system_table(self, name, count):
        columns = SYSTEM_TABLES[name]
        rows = [dict.fromkeys(columns) for _ in range(count)]
        self.engine.register_system_table(name, columns, lambda: rows)
        self.system_rows[name] = count

    @invariant()
    def listings_match(self):
        for namespace in NAMESPACES:
            visible = [(full[len(namespace):], kind)
                       for full, (kind, _f, _c) in self.model.items()
                       if full.startswith(namespace)]
            tables = [{"table": n} for n, kind in visible
                      if kind in TABLE_KINDS]
            views = [{"view": n} for n, kind in sorted(visible)
                     if kind in VIEW_KINDS]
            assert self._run("SHOW TABLES", namespace).rows == tables
            assert self._run("SHOW VIEWS", namespace).rows == views
        listed = [{"name": full, "kind": kind}
                  for full, (kind, _f, _c) in self.model.items()
                  if kind != "view"]
        for namespace in NAMESPACES:
            rows = self._run("SELECT name, kind FROM sys.tables",
                             namespace).rows
            assert rows == listed

    @invariant()
    def names_resolve(self):
        for namespace in NAMESPACES:
            for name in NAMES:
                entry = self.model.get(namespace + name)
                error = None if entry is not None else TableNotFoundError
                desc = self._run(f"DESC {name}", namespace, error)
                if entry is not None:
                    assert [r["field"] for r in desc.rows] == entry[1]
                error = None if entry is not None else AnalysisError
                select = self._run(f"SELECT * FROM {name}", namespace,
                                   error)
                if entry is not None:
                    assert select.columns == entry[2]

    @invariant()
    def system_tables_resolve(self):
        for name, count in self.system_rows.items():
            for namespace in NAMESPACES:
                rows = self._run(f"SELECT * FROM {name}", namespace).rows
                assert len(rows) == count
                desc = self._run(f"DESC {name}", namespace).rows
                assert [r["field"] for r in desc] == SYSTEM_TABLES[name]


TestCatalogModel = CatalogMachine.TestCase
TestCatalogModel.settings = settings(max_examples=40,
                                     stateful_step_count=12,
                                     deadline=None)
