"""Trajectory analytics through JustQL + the multi-user service layer.

Shows the paper's three analysis-operation shapes on the trajectory
plugin table — 1-1 (noise filtering), 1-N (segmentation, stay points),
N-M (DBSCAN over delivery stops) — and the PaaS flow: two users sharing
one engine through the SDK, each inside an invisible namespace.

Run:  python examples/trajectory_analytics.py
"""

from repro.datagen import generate_traj_dataset
from repro.ops import traj_stay_points
from repro.service import JustClient, JustServer


def main() -> None:
    server = JustServer()

    # -- user "ops" loads the fleet's trajectories --------------------------
    with JustClient(server, "ops") as ops:
        ops.execute_query("CREATE TABLE fleet AS trajectory")
        trajs = generate_traj_dataset(60, 200)
        table = server.engine.table("ops__fleet")
        table.insert_trajectories(trajs)
        print(f"[ops] loaded {table.row_count} trajectories")

        # ST range on the GPS list: paths that cross a window (the exact
        # polyline test) and paths that lie wholly inside it (their MBR).
        cx, cy = table.data_envelope.center
        box = (f"st_makeMBR({cx - 0.1:.3f}, {cy - 0.1:.3f}, "
               f"{cx + 0.1:.3f}, {cy + 0.1:.3f})")
        crossing = ops.execute_query(
            f"SELECT tid FROM fleet WHERE st_intersects(gps_list, {box})")
        inside = ops.execute_query(
            f"SELECT tid FROM fleet WHERE gps_list WITHIN {box}")
        print(f"[ops] {len(crossing)} trajectories cross the central "
              f"window, {len(inside)} lie wholly inside it")

        # 1-1: noise filtering via SQL.
        rs = ops.execute_query(
            "SELECT tid, st_trajNoiseFilter(item) AS clean FROM fleet "
            "LIMIT 5")
        for row in rs:
            print(f"[ops] {row['tid']}: "
                  f"{len(row['clean'].points)} clean points")

        # 1-N: segmentation — one row in, many segments out.
        rs = ops.execute_query(
            "SELECT st_trajSegmentation(item) AS segment FROM fleet")
        print(f"[ops] segmentation: {table.row_count} trajectories -> "
              f"{len(rs)} segments")

        # 1-N: stay points (delivery stops).
        rs = ops.execute_query(
            "SELECT tid, st_trajStayPoint(item) AS stop FROM fleet")
        stops = rs.rows
        print(f"[ops] detected {len(stops)} delivery stops")

        # Persist the stops as a view, cluster them with N-M DBSCAN.
        if stops:
            ops.execute_query("CREATE VIEW stop_points AS SELECT tid, "
                              "st_trajStayPoint(item) AS stop FROM fleet")
            # DBSCAN needs point geometries; build them in a view query.
            engine = server.engine
            from repro.dataframe import DataFrame
            from repro.geometry import Point
            stop_rows = [{"tid": s["tid"],
                          "geom": Point(s["stop"].lng, s["stop"].lat)}
                         for s in stops]
            engine.create_view("ops__stop_geoms",
                               DataFrame.from_rows(stop_rows,
                                                   ["tid", "geom"]))
            rs = ops.execute_query(
                "SELECT st_DBSCAN(geom, 2, 0.03) FROM stop_geoms")
            clusters = {r["cluster"] for r in rs if r["cluster"] >= 0}
            print(f"[ops] DBSCAN grouped stops into {len(clusters)} "
                  f"service zones")

    # -- user "analyst" cannot see ops' tables -------------------------------
    with JustClient(server, "analyst") as analyst:
        tables = analyst.execute_query("SHOW TABLES").rows
        print(f"[analyst] visible tables: {tables}  (namespace isolation)")
        analyst.execute_query("CREATE TABLE fleet AS trajectory")
        print("[analyst] created an independent 'fleet' without conflict")

    # Direct library access for the same stay-point logic:
    sample = generate_traj_dataset(1, 400)[0]
    stays = traj_stay_points(sample, distance_threshold_m=300,
                             time_threshold_s=600)
    print(f"library API: {len(stays)} stays in a fresh trajectory")


if __name__ == "__main__":
    main()
