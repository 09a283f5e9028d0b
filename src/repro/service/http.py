"""The HTTP/JSON transport of the PaaS (Section VII-B).

The paper's SDKs talk to JUST over HTTP.  This module provides that
transport boundary in-process: requests and responses are pure
JSON-serializable dictionaries (checked by round-tripping through
``json``), value types are wire-encoded (geometries as WKT, series as
sample lists, trajectories as objects), and large results are fetched
chunk by chunk through a handle — the Figure 2 multi-transmission path
made explicit.

``JustHttpServer.handle`` is the single entry point a real WSGI/ASGI
binding would call; ``JustHttpClient`` is an SDK built purely on it.
"""

from __future__ import annotations

import itertools
import json

from repro.errors import JustError, remote_error
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.geometry.wkt import from_wkt, to_wkt
from repro.service.server import JustServer
from repro.sql.result import ResultSet
from repro.trajectory.model import STSeries, Trajectory, TSeries

#: Rows per fetch of the chunked result path.
DEFAULT_PAGE_ROWS = 500


# -- wire encoding --------------------------------------------------------------

def encode_value(value):
    """Encode one cell value as JSON-safe data with a type tag."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Geometry):
        return {"@type": "wkt", "wkt": to_wkt(value)}
    if isinstance(value, Envelope):
        return {"@type": "mbr", "bounds": list(value.as_tuple())}
    if isinstance(value, STSeries):
        return {"@type": "st_series",
                "points": [[p.lng, p.lat, p.time] for p in value]}
    if isinstance(value, TSeries):
        return {"@type": "t_series",
                "samples": [list(s) for s in value]}
    if isinstance(value, Trajectory):
        return {"@type": "trajectory", "tid": value.tid,
                "oid": value.oid,
                "points": [[p.lng, p.lat, p.time] for p in value.points]}
    # Fallback: readable representation (StayPoint, MatchedPoint, ...).
    return {"@type": "repr", "repr": repr(value)}


def decode_value(value):
    """Inverse of :func:`encode_value` for the tagged encodings."""
    if not isinstance(value, dict) or "@type" not in value:
        return value
    tag = value["@type"]
    if tag == "wkt":
        return from_wkt(value["wkt"])
    if tag == "mbr":
        return Envelope(*value["bounds"])
    if tag == "st_series":
        return STSeries([tuple(p) for p in value["points"]])
    if tag == "t_series":
        return TSeries([tuple(s) for s in value["samples"]])
    if tag == "trajectory":
        return Trajectory(value["tid"], value["oid"],
                          STSeries([tuple(p) for p in value["points"]]))
    return value.get("repr")


def encode_row(row: dict) -> dict:
    return {key: encode_value(value) for key, value in row.items()}


def decode_row(row: dict) -> dict:
    return {key: decode_value(value) for key, value in row.items()}


# -- server ------------------------------------------------------------------------

class _RequestError(Exception):
    """A request that lacks a field or carries one of the wrong type."""


def _field(request: dict, name: str, kind: type = str):
    """The required field ``name`` of ``request``, of type ``kind``."""
    value = request.get(name)
    if not isinstance(value, kind):
        raise _RequestError(f"field {name!r} must be a {kind.__name__}, "
                            f"got {value!r}")
    return value


def _number(request: dict, name: str, convert: type):
    """The optional numeric field ``name``, converted; ``None`` if absent."""
    value = request.get(name)
    if value is None:
        return None
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise _RequestError(f"field {name!r} must be a number, "
                            f"got {value!r}") from None


class JustHttpServer:
    """Routes JSON requests onto a :class:`JustServer`.

    Endpoints (the ``path`` field of a request):

    * ``POST /connect``      {user} -> {session}
    * ``POST /disconnect``   {session} -> {}
    * ``POST /execute``      {session, sql} -> {columns, rows, sim_ms}
      for small results, or {handle, columns, total_rows, sim_ms} for
      large ones (fetched via /fetch).
    * ``POST /fetch``        {handle} -> {rows, done}
    * ``GET  /metrics``      {} -> {metrics, slow_queries} — the
      process-wide registry dump plus the slow-query log (the
      Prometheus-scrape role).
    * ``GET  /profile``      {limit?} -> {profiles} — recent statement
      traces as span trees (the trace-backend role).

    Operational state — regions, servers, balancer decisions, replicas,
    streams, events, metric history, SLOs and alerts — is read as
    ``SELECT … FROM sys.*`` through ``/execute``, which pages, encodes
    and reports errors like any other statement.  A request missing a
    field, or carrying one of the wrong type, answers
    ``{"error": ..., "kind": "RequestError"}``.  A session's unread
    result handles go when it disconnects or expires.
    """

    def __init__(self, server: JustServer | None = None,
                 page_rows: int = DEFAULT_PAGE_ROWS):
        self.server = server if server is not None else JustServer()
        self.page_rows = page_rows
        #: Open result handles: handle -> (owning session, result).
        self._handles: dict[str, tuple[str, ResultSet]] = {}
        self._handle_ids = itertools.count(1)

    # -- entry point ----------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """Dispatch one request; always returns a JSON-safe response.

        Engine errors become ``{"error": ..., "kind": ...}`` responses
        with the exception class name, never raised across the wire.
        """
        try:
            response = self._route(request)
        except JustError as exc:
            response = {"error": str(exc), "kind": type(exc).__name__}
        except _RequestError as exc:
            response = {"error": str(exc), "kind": "RequestError"}
        # Guarantee the transport property: everything must survive JSON.
        return json.loads(json.dumps(response))

    def _route(self, request: dict) -> dict:
        path = request.get("path")
        if path == "/connect":
            return {"session": self.server.connect(_field(request, "user"))}
        if path == "/disconnect":
            session = _field(request, "session")
            self.server.disconnect(session)
            self._drop_handles(lambda owner: owner == session)
            return {}
        if path == "/execute":
            return self._execute(request)
        if path == "/fetch":
            return self._fetch(request)
        if path == "/metrics":
            return {"metrics": self.server.metrics_snapshot(),
                    "slow_queries": self.server.slow_queries()}
        if path == "/profile":
            profiles = self.server.recent_profiles(
                _number(request, "limit", int))
            return {"profiles": [p.as_dict() for p in profiles]}
        return {"error": f"unknown path {path!r}", "kind": "RouteError"}

    def _drop_handles(self, owned_by) -> None:
        """Forget the result handles whose session ``owned_by`` selects."""
        for handle, (owner, _) in list(self._handles.items()):
            if owned_by(owner):
                del self._handles[handle]

    def _execute(self, request: dict) -> dict:
        session, sql = _field(request, "session"), _field(request, "sql")
        kwargs = {}
        timeout_ms = _number(request, "timeout_ms", float)
        if timeout_ms is not None:
            kwargs["timeout_ms"] = timeout_ms
        if request.get("partial_results"):
            kwargs["partial_results"] = True
        try:
            result = self.server.execute(session, sql, **kwargs)
        finally:
            # Sessions expire inside execute(); their unread results go.
            active = {s.session_id
                      for s in self.server.sessions.active_sessions()}
            self._drop_handles(lambda owner: owner not in active)
        rows = result.rows
        base = {"columns": result.columns,
                "sim_ms": round(result.sim_ms, 3)}
        if result.skipped_regions:
            base["skipped_regions"] = result.skipped_regions
        if len(rows) <= self.page_rows:
            base["rows"] = [encode_row(row) for row in rows]
            return base
        handle = f"h{next(self._handle_ids)}"
        self._handles[handle] = (session, result)
        base["handle"] = handle
        base["total_rows"] = len(rows)
        return base

    def _fetch(self, request: dict) -> dict:
        handle = _field(request, "handle")
        if handle not in self._handles:
            return {"error": f"unknown or exhausted handle {handle!r}",
                    "kind": "HandleError"}
        _, result = self._handles[handle]
        rows = []
        while result.has_next() and len(rows) < self.page_rows:
            rows.append(encode_row(result.next()))
        done = not result.has_next()
        if done:
            del self._handles[handle]
        return {"rows": rows, "done": done}


# -- client -----------------------------------------------------------------------

class JustHttpClient:
    """An SDK speaking only the JSON protocol (no engine imports).

    Matches the paper's snippet: ``execute_query`` returns an object
    with ``has_next``/``next`` that transparently pages large results
    through ``/fetch``.
    """

    def __init__(self, transport: JustHttpServer, user: str):
        self._transport = transport
        self.user = user
        self._session = self._connect()

    def _connect(self) -> str:
        response = self._transport.handle(
            {"path": "/connect", "user": self.user})
        return response["session"]

    def execute_query(self, sql: str,
                      timeout_ms: float | None = None,
                      partial_results: bool = False) -> "HttpResultSet":
        request = {"path": "/execute", "session": self._session,
                   "sql": sql}
        if timeout_ms is not None:
            request["timeout_ms"] = timeout_ms
        if partial_results:
            request["partial_results"] = True
        response = self._transport.handle(request)
        if response.get("kind") == "SessionError":
            self._session = self._connect()
            request["session"] = self._session
            response = self._transport.handle(request)
        if "error" in response:
            _raise_remote(response)
        return HttpResultSet(self._transport, response)

    def close(self) -> None:
        self._transport.handle({"path": "/disconnect",
                                "session": self._session})

    def __enter__(self) -> "JustHttpClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _raise_remote(response: dict):
    """Re-raise a wire error as its typed engine exception.

    The ``kind`` tag maps back onto the :class:`~repro.errors.JustError`
    hierarchy, so remote callers can distinguish retryable conditions
    (``RegionUnavailableError``, ``ServerOverloadedError``) from fatal
    ones exactly like in-process callers; unknown kinds (transport-level
    ``RouteError``/``HandleError``) degrade to the tagged base error.
    """
    kind = response.get("kind", "")
    if kind == "JustError" or kind not in _KNOWN_KINDS:
        raise JustError(f"[{kind}] {response['error']}")
    raise remote_error(kind, response["error"])


def _collect_kinds():
    def walk(cls):
        yield cls.__name__
        for sub in cls.__subclasses__():
            yield from walk(sub)
    return frozenset(walk(JustError))


_KNOWN_KINDS = _collect_kinds()


class HttpResultSet:
    """Client-side cursor over a (possibly chunked) remote result."""

    def __init__(self, transport: JustHttpServer, response: dict):
        self._transport = transport
        self.columns = response.get("columns", [])
        self.sim_ms = response.get("sim_ms", 0.0)
        self._buffer = [decode_row(r) for r in response.get("rows", [])]
        self._handle = response.get("handle")
        self.total_rows = response.get("total_rows",
                                       len(self._buffer))
        self.skipped_regions = response.get("skipped_regions", [])
        self._position = 0

    @property
    def is_partial(self) -> bool:
        return bool(self.skipped_regions)

    def has_next(self) -> bool:
        if self._position < len(self._buffer):
            return True
        if self._handle is None:
            return False
        fetched = self._transport.handle(
            {"path": "/fetch", "handle": self._handle})
        if "error" in fetched:
            self._handle = None
            return False
        self._buffer = [decode_row(r) for r in fetched["rows"]]
        self._position = 0
        if fetched["done"]:
            self._handle = None
        return bool(self._buffer)

    def next(self) -> dict:
        if not self.has_next():
            raise StopIteration("result set exhausted")
        row = self._buffer[self._position]
        self._position += 1
        return row

    def __iter__(self):
        while self.has_next():
            yield self.next()
