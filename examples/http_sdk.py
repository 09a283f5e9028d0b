"""The SDK over HTTP (Section VII-B): a client that speaks only JSON.

One ``JustHttpClient`` session creates a table, inserts courier pings,
reads a geometry column back (geometries cross the wire as WKT and come
out as points again), and pages a result larger than one response
through ``/fetch``, as the paper's SDK snippet does with
``has_next``/``next``.

Run:  python examples/http_sdk.py
"""

import random

from repro.service.http import (
    DEFAULT_PAGE_ROWS,
    JustHttpClient,
    JustHttpServer,
)

T0 = 1_538_352_000


def main() -> None:
    transport = JustHttpServer()
    rng = random.Random(7)
    with JustHttpClient(transport, "courier-app") as client:
        client.execute_query("CREATE TABLE pings (fid integer:primary key, "
                             "time date, geom point, speed double)")
        rows = [f"({i}, {T0 + 30 * i}, st_makePoint("
                f"{116.3 + rng.random() * 0.2:.6f}, "
                f"{39.85 + rng.random() * 0.1:.6f}), "
                f"{rng.random() * 15:.2f})" for i in range(1200)]
        for start in range(0, len(rows), 400):
            client.execute_query("INSERT INTO pings VALUES "
                                 + ", ".join(rows[start:start + 400]))

        # A geometry column crosses the wire as WKT and decodes to points.
        nearby = client.execute_query(
            "SELECT fid, geom FROM pings WHERE geom WITHIN "
            "st_makeMBR(116.30, 39.85, 116.32, 39.86) ORDER BY fid")
        print(f"{nearby.total_rows} pings in the box "
              f"({nearby.sim_ms:.1f} sim-ms):")
        for row in nearby:
            point = row["geom"]
            print(f"  {row['fid']:5d}  ({point.lng:.4f}, {point.lat:.4f})")

        # More rows than one response holds: the first page comes back
        # with a handle, and has_next() fetches the rest page by page.
        result = client.execute_query(
            "SELECT fid, speed FROM pings WHERE speed > 1.0")
        pages = -(-result.total_rows // DEFAULT_PAGE_ROWS)
        fast = 0
        while result.has_next():
            fast += result.next()["speed"] > 10.0
        print(f"{result.total_rows} moving pings in {pages} pages, "
              f"{fast} faster than 10 m/s")


if __name__ == "__main__":
    main()
