"""ST-Hadoop (GeoInformatica 2018): SpatialHadoop + temporal slicing.

ST-Hadoop extends SpatialHadoop with temporal hierarchy levels: data is
sliced by time period, each slice spatially partitioned.  Spatio-temporal
queries read only the matching slices, but still pay the MapReduce job
launch per query.  Data updates only append in future time — rewriting a
historical slice is unsupported, matching Table I's "Limited" entry.
"""

from __future__ import annotations

from repro.baselines.base import HadoopBaseline, Item
from repro.cluster.simclock import SimJob
from repro.curves.timeperiod import TimePeriod, period_bin
from repro.geometry.envelope import Envelope


class STHadoop(HadoopBaseline):
    name = "ST-Hadoop"
    supports_st = True
    supports_knn = True

    def __init__(self, cluster=None, period: TimePeriod = TimePeriod.DAY):
        super().__init__(cluster)
        self.period = period
        self.slices: dict[int, dict[tuple[int, int], list[Item]]] = {}
        self.max_loaded_bin: int | None = None

    def _build(self, job: SimJob) -> None:
        super()._build(job)
        # Temporal slicing: re-bucket the grid files per time period.
        for cell, items in self.partition_files.items():
            for item in items:
                bin_number = period_bin(item.t_min, self.period)
                self.slices.setdefault(bin_number, {}) \
                    .setdefault(cell, []).append(item)
                if self.max_loaded_bin is None or \
                        bin_number > self.max_loaded_bin:
                    self.max_loaded_bin = bin_number
        # The temporal hierarchy is a second serialization pass.
        job.charge_cpu_records(len(self.items),
                               us_per_record=self.serialize_us_per_record
                               / 2.0)
        job.charge_disk_write(self.raw_bytes)

    def _st_query(self, query: Envelope, t_min: float, t_max: float,
                  job: SimJob) -> list[Item]:
        bins = range(period_bin(t_min, self.period) - 1,
                     period_bin(t_max, self.period) + 1)
        read_bytes = 0
        scanned = 0
        out: list[Item] = []
        seen: set[str] = set()
        for bin_number in bins:
            cells = self.slices.get(bin_number)
            if not cells:
                continue
            for cell, items in cells.items():
                if not self._cell_intersects(cell, query):
                    continue
                read_bytes += sum(item.raw_bytes for item in items)
                scanned += len(items)
                for item in items:
                    if (item.fid not in seen
                            and item.envelope.intersects(query)
                            and item.t_max >= t_min
                            and item.t_min <= t_max):
                        seen.add(item.fid)
                        out.append(item)
        job.charge_disk_read(read_bytes)
        job.charge_cpu_records(scanned)
        return out

    def _cell_intersects(self, cell: tuple[int, int],
                         query: Envelope) -> bool:
        if self.bounds is None:
            return False
        width = self.bounds.width / self.grid_cols or 1e-12
        height = self.bounds.height / self.grid_rows or 1e-12
        col, row = cell
        cell_env = Envelope(self.bounds.min_lng + col * width,
                            self.bounds.min_lat + row * height,
                            self.bounds.min_lng + (col + 1) * width,
                            self.bounds.min_lat + (row + 1) * height)
        return cell_env.intersects(query)
