"""Dataset statistics (Table II) and raw-size accounting.

"Raw size" is the size the data would occupy as CSV text (the form the
paper's datasets arrive in), computed from the actual generated records so
compression ratios and storage-cost figures are grounded in real bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trajectory.model import Trajectory


@dataclass(frozen=True)
class DatasetStats:
    """One row of Table II."""

    name: str
    num_points: int
    num_records: int
    raw_size_bytes: int
    time_start: float
    time_end: float

    @property
    def raw_size_mb(self) -> float:
        return self.raw_size_bytes / (1024.0 * 1024.0)

def _csv_bytes_per_gps_point() -> int:
    # "traj123,lorry45,116.123456,39.123456,1393632000.123\n"
    return len("traj12345,lorry123,116.123456,39.123456,1393632000.123\n")


def _csv_bytes_per_order() -> int:
    # "12345678,116.123456,39.123456,1538352000.123,123.45,electronics\n"
    return len("12345678,116.123456,39.123456,1538352000.123,"
               "123.45,electronics\n")


def traj_statistics(trajectories: list[Trajectory],
                    name: str = "Traj") -> DatasetStats:
    """Table II row for a trajectory dataset."""
    num_points = sum(len(t.points) for t in trajectories)
    return DatasetStats(
        name=name,
        num_points=num_points,
        num_records=len(trajectories),
        raw_size_bytes=num_points * _csv_bytes_per_gps_point(),
        time_start=min(t.start_time for t in trajectories),
        time_end=max(t.end_time for t in trajectories),
    )


def order_statistics(rows: list[dict], name: str = "Order") -> DatasetStats:
    """Table II row for an order dataset."""
    return DatasetStats(
        name=name,
        num_points=len(rows),
        num_records=len(rows),
        raw_size_bytes=len(rows) * _csv_bytes_per_order(),
        time_start=min(r["time"] for r in rows),
        time_end=max(r["time"] for r in rows),
    )


def dataset_statistics(trajectories: list[Trajectory] | None = None,
                       orders: list[dict] | None = None,
                       synthetic: list[Trajectory] | None = None
                       ) -> list[DatasetStats]:
    """Table II for whichever datasets are provided."""
    out = []
    if trajectories is not None:
        out.append(traj_statistics(trajectories, "Traj"))
    if orders is not None:
        out.append(order_statistics(orders, "Order"))
    if synthetic is not None:
        out.append(traj_statistics(synthetic, "Synthetic"))
    return out
