"""A minimal metrics registry (counters, gauges, quantile histograms).

Mirrors the Prometheus client-library surface the HBase/OpenTelemetry
stacks expose: metrics are named, optionally labelled, created on first
use, and snapshot as plain JSON-safe numbers so the HTTP ``/metrics``
endpoint can serve them without any serialization glue.  Histograms keep
a bounded sample buffer and report nearest-rank p50/p95/p99, which is
what the benchmark harness needs for tail-latency attribution.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from repro.errors import MetricCardinalityError

#: Default latency bucket bounds (simulated milliseconds).  Cumulative
#: ``le`` bucket counters make *windowed* latency SLIs exact: the SLO
#: layer computes the fraction of observations above a threshold from
#: two counter increases instead of from unwindowed quantiles.
DEFAULT_LATENCY_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
    2500.0, 5000.0)

#: Most label sets one metric name may push (``counter`` / ``gauge`` /
#: ``histogram``).  Each is a series every scrape records, so a label
#: fed from an unbounded value is refused with
#: :class:`~repro.errors.MetricCardinalityError` rather than growing
#: the monitor tick; ``src/`` pushes a few dozen per name at most.
MAX_LABEL_SETS = 1000

#: Samples appended since the last read that are folded into a
#: histogram's sorted view one ``insort`` at a time; a longer tail is
#: appended and the view re-sorted once (timsort merges the sorted run
#: and the tail in linear time).
_INSORT_MAX = 16


def _escape_label_value(value) -> str:
    """Prometheus label-value escaping (backslash first, then quote/LF)."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _metric_key(name: str, labels: dict) -> str:
    """Flatten ``name`` + labels into one stable registry key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={_escape_label_value(labels[k])}"
                     for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _format_bound(bound: float) -> str:
    """Compact, stable rendering of a bucket upper bound (``le``)."""
    return f"{bound:g}"


def _type_name(metric) -> str:
    if isinstance(metric, Counter):
        return "counter"
    if isinstance(metric, Gauge):
        return "gauge"
    return "histogram"


class Counter:
    """A monotonically increasing count (events, bytes, errors)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value (in-flight statements, cache fill)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class CounterView(Counter):
    """A counter read from its owners: the sum of their numbers (every
    client's breaker counts into ``breaker.opened``).  ``value`` has no
    setter, so pushing into one raises."""

    __slots__ = ("reads",)

    def __init__(self, name: str):
        self.name = name
        self.reads: list = []

    value = property(lambda self: sum(read() for read in self.reads))


class GaugeView(Gauge):
    """A gauge read from its owner (the newest one, if exposed again)."""

    __slots__ = ("reads",)

    def __init__(self, name: str):
        self.name = name
        self.reads: list = []

    value = property(lambda self: self.reads[-1]())


class Histogram:
    """A sample distribution with nearest-rank quantiles.

    ``count``/``sum`` are exact over every observation; quantiles are
    computed over a bounded sample buffer.  When the buffer fills it is
    halved by keeping every second sample (a deterministic decimation
    rather than a random reservoir, so tests are reproducible), and the
    sampling *stride* doubles: after ``k`` decimations only every
    ``2^k``-th new observation is retained, so retained samples keep
    uniform weight and the buffer stops churning through repeated
    halvings.  The very latest observation is always kept (provisionally,
    replaced by its successor when off-stride) so max-style quantiles
    track the newest data.  With the default 8192-sample buffer the
    reproduction's workloads never decimate.

    The sorted view of the buffer is kept between reads: ``observe``
    only appends to the buffer, and a read folds the samples appended
    since the last one into the view (``insort`` for a few, one
    ``list.sort`` of sorted run + tail for many), so a scrape per
    statement pays a bisection per new sample, not a full sort.
    """

    __slots__ = ("name", "count", "sum", "_samples", "_max_samples",
                 "_stride", "_phase", "_tail_provisional", "_sorted",
                 "_folded", "buckets", "_bucket_counts",
                 "_bucket_exemplars", "last_exemplar")

    def __init__(self, name: str, max_samples: int = 8192,
                 buckets: tuple[float, ...] | None = None):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self._samples: list[float] = []
        self._max_samples = max_samples
        self._stride = 1
        self._phase = 0
        self._tail_provisional = False
        #: Sorted view of ``_samples[:_folded]``; None until the first
        #: read and after a decimation, which rebuild it whole.
        self._sorted: list[float] | None = None
        self._folded = 0
        self.buckets: tuple[float, ...] = (
            tuple(sorted(buckets)) if buckets else ())
        # Cumulative ``le`` counts, one per bound (no +Inf slot; that is
        # ``count``).  Exemplars keep one (stamp, exemplar) per bucket
        # plus an overflow slot, so alerts can link the most recent
        # observation above a threshold back to its trace.
        self._bucket_counts: list[int] = [0] * len(self.buckets)
        self._bucket_exemplars: list[tuple[int, object] | None] = (
            [None] * (len(self.buckets) + 1))
        self.last_exemplar: object | None = None

    def observe(self, value: float, exemplar: object = None) -> None:
        self.count += 1
        self.sum += value
        if self.buckets:
            slot = bisect_left(self.buckets, value)
            for i in range(slot, len(self.buckets)):
                self._bucket_counts[i] += 1
        else:
            slot = 0
        if exemplar is not None:
            self.last_exemplar = exemplar
            if self.buckets:
                self._bucket_exemplars[slot] = (self.count, exemplar)
        samples = self._samples
        if self._tail_provisional:
            # The previous observation was off-stride and kept only so
            # the buffer tail tracks the latest value; its successor
            # replaces it, in the sorted view too if a read folded it.
            dropped = samples.pop()
            self._tail_provisional = False
            if self._folded > len(samples):
                self._folded -= 1
                del self._sorted[bisect_left(self._sorted, dropped)]
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            if len(samples) >= self._max_samples:
                samples = self._samples = samples[::2]
                self._stride *= 2
                self._sorted = None
                self._folded = 0
            samples.append(value)
        else:
            samples.append(value)
            self._tail_provisional = True

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs (Prometheus ``le``)."""
        return list(zip(self.buckets, self._bucket_counts))

    def exemplar_above(self, threshold: float):
        """Most recent exemplar observed above ``threshold``, or None.

        Scans the overflow slot plus every bucket whose upper bound
        exceeds the threshold (bucket membership is approximate at the
        boundary bucket; exemplars are diagnostics, not accounting).
        """
        best: tuple[int, object] | None = None
        for i, entry in enumerate(self._bucket_exemplars):
            if entry is None:
                continue
            bound_above = (i >= len(self.buckets)
                           or self.buckets[i] > threshold)
            if bound_above and (best is None or entry[0] > best[0]):
                best = entry
        return best[1] if best is not None else None

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the retained samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        samples = self._samples
        if not samples:
            return 0.0
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(samples)
        elif self._folded < len(samples):
            tail = samples[self._folded:]
            if len(tail) <= _INSORT_MAX:
                for value in tail:
                    insort(ordered, value)
            else:
                ordered += tail
                ordered.sort()
        self._folded = len(samples)
        rank = max(0, min(len(ordered) - 1,
                          int(q * len(ordered) + 0.5) - 1))
        return ordered[rank]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def as_dict(self) -> dict:
        out = {"count": self.count, "sum": round(self.sum, 6),
               "mean": round(self.mean, 6),
               "p50": round(self.p50, 6), "p95": round(self.p95, 6),
               "p99": round(self.p99, 6)}
        if self.buckets:
            out["buckets"] = {_format_bound(bound): count
                              for bound, count in self.bucket_counts()}
        return out


class MetricsRegistry:
    """Named metrics, shared by name: pushed into, or read from an owner.

    One registry serves a whole deployment (engine + store + service).
    Numbers nobody else stores are pushed: :meth:`counter` /
    :meth:`gauge` / :meth:`histogram` return the same object for the
    same name + labels, exactly like a Prometheus client registry.
    Numbers a component already keeps are declared once with
    :meth:`expose` and read from that component whenever the registry
    is listed, so they can never disagree with their owner.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        #: Label sets pushed per metric name (``MAX_LABEL_SETS``).
        self._label_sets: dict[str, int] = {}
        self._help: dict[str, str] = {}
        #: Exposed series not listed yet, with the tests that list them.
        self._pending: dict[str, list] = {}
        #: The sorted listing and the ``(metrics, pending)`` sizes it
        #: was built at: ``_metrics`` only grows, and ``_pending`` only
        #: gains keys ``_metrics`` gains too, so equal sizes mean the
        #: same listing.
        self._listed: list[tuple[str, Counter | Gauge | Histogram]] = []
        self._listed_at = (0, 0)

    def _get(self, name: str, labels: dict, cls, **kwargs):
        key = _metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            if labels and cls in (Counter, Gauge, Histogram):
                pushed = self._label_sets.get(name, 0)
                if pushed >= MAX_LABEL_SETS:
                    raise MetricCardinalityError(name, key,
                                                 MAX_LABEL_SETS)
                self._label_sets[name] = pushed + 1
            metric = cls(key, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {key!r} already registered as "
                            f"{type(metric).__name__}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] | None = None,
                  **labels) -> Histogram:
        """Get-or-create; ``buckets`` applies only on first creation."""
        return self._get(name, labels, Histogram, buckets=buckets)

    def expose(self, name: str, read, kind: str = "counter", since=None,
               **labels) -> None:
        """Declare a series whose value is ``read()``, kept by its owner.

        The series is listed (``items`` / ``snapshot`` / ``render_text``
        / the scraper / ``sys.metrics``) from the first listing at which
        ``since()`` is truthy, and from then on.  ``since`` defaults to
        ``read``: a series appears with its first non-zero value, as a
        pushed counter appears with its first ``inc``.  Exposing a
        counter again adds an owner to the sum; a gauge follows its
        newest owner.
        """
        key = _metric_key(name, labels)
        unlisted = key not in self._metrics or key in self._pending
        view = self._get(name, labels,
                         CounterView if kind == "counter" else GaugeView)
        view.reads.append(read)
        if unlisted:
            self._pending.setdefault(key, []).append(since or read)

    def expose_histogram(self, histogram: Histogram) -> None:
        """List a histogram its owner observes into, from the first
        observation (when ``histogram()`` would have created it)."""
        if histogram.name in self._metrics:
            raise TypeError(f"metric {histogram.name!r} already registered")
        self._metrics[histogram.name] = histogram
        self._pending[histogram.name] = [lambda: histogram.count]

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to a metric *base* name (no labels)."""
        self._help[name] = help_text

    def help_text(self, name: str) -> str | None:
        return self._help.get(name)

    def items(self) -> list[tuple[str, Counter | Gauge | Histogram]]:
        """(flattened key, metric) pairs of every listed series, sorted."""
        pending = self._pending
        for key in [key for key, tests in pending.items()
                    if any(test() for test in tests)]:
            del pending[key]
        sizes = (len(self._metrics), len(pending))
        if sizes != self._listed_at:
            self._listed = [(key, self._metrics[key])
                            for key in sorted(self._metrics)
                            if key not in pending]
            self._listed_at = sizes
        return list(self._listed)

    def __contains__(self, key: str) -> bool:
        return any(key == listed for listed, _ in self.items())

    def __len__(self) -> int:
        return len(self.items())

    def snapshot(self) -> dict:
        """Every metric as JSON-safe data, keyed by flattened name."""
        return {key: metric.as_dict() if isinstance(metric, Histogram)
                else metric.value
                for key, metric in self.items()}

    def render_text(self) -> str:
        """Prometheus-exposition-style text (one ``name value`` per line).

        Histogram stat suffixes attach to the metric *name*, before any
        label braces (``name_p95{op=scan}``), the only form Prometheus
        scrapers parse.  Each metric base name gets a ``# TYPE`` line
        (and a ``# HELP`` line when :meth:`describe` registered one)
        before its first sample, and bucketed histograms additionally
        expose cumulative ``name_bucket{le=...}`` series.
        """
        lines: list[str] = []
        described: set[str] = set()
        for key, metric in self.items():
            base, brace, labels = key.partition("{")
            labelpart = brace + labels
            if base not in described:
                described.add(base)
                help_text = self._help.get(base)
                if help_text is not None:
                    escaped = (help_text.replace("\\", "\\\\")
                               .replace("\n", "\\n"))
                    lines.append(f"# HELP {base} {escaped}")
                lines.append(f"# TYPE {base} {_type_name(metric)}")
            if isinstance(metric, Histogram):
                stats = metric.as_dict()
                stats.pop("buckets", None)
                for stat, number in stats.items():
                    lines.append(f"{base}_{stat}{labelpart} {number}")
                if metric.buckets:
                    inner = labels[:-1] + "," if labelpart else ""
                    for bound, count in metric.bucket_counts():
                        lines.append(f"{base}_bucket{{"
                                     f"{inner}le={_format_bound(bound)}}}"
                                     f" {count}")
                    lines.append(f"{base}_bucket{{{inner}le=+Inf}} "
                                 f"{metric.count}")
            else:
                lines.append(f"{key} {metric.value}")
        return "\n".join(lines)
