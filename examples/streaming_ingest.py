"""Continuous ingestion (Section IX).

A Kafka-like topic receives courier GPS pings; a micro-batch loader
drains it into an indexed table while queries run concurrently — new and
even historical events become queryable immediately, with no index
rebuild (the property Table I denies to every Hadoop/Spark baseline).

Run:  python examples/streaming_ingest.py
"""

import random

from repro import Envelope, JustEngine

T0 = 1_700_000_000.0


def ping(rng, i, t):
    return {"courier": f"c{i % 40}",
            "lng": 116.2 + rng.random() * 0.2,
            "lat": 39.85 + rng.random() * 0.1,
            "ts_ms": int(t * 1000)}


def main() -> None:
    engine = JustEngine()
    engine.sql("CREATE TABLE pings (fid string:primary key, "
               "name string, time date, geom point)")
    topic = engine.create_topic("courier-gps")
    loader = engine.stream_load("courier-gps", "pings", {
        "fid": "to_string(ts_ms)",
        "name": "courier",
        "time": "long_to_date_ms(ts_ms)",
        "geom": "lng_lat_to_point(lng, lat)",
    }, batch_size=500)

    rng = random.Random(7)
    # Three "minutes" of traffic arrive while we consume and query.
    for minute in range(3):
        t_base = T0 + minute * 60
        topic.append_many(ping(rng, i, t_base + i * 0.05)
                          for i in range(1_200))
        stats = loader.drain()
        table = engine.table("pings")
        print(f"minute {minute}: consumed {stats['consumed']:>5} events "
              f"(lag {loader.lag}), table now {table.row_count} rows, "
              f"ingest {stats['sim_ms']:.0f} sim-ms")

        # Query the freshest data immediately.
        rs = engine.st_range_query(
            "pings", Envelope(116.25, 39.87, 116.3, 39.92),
            t_base, t_base + 60)
        print(f"          live query: {len(rs.rows)} pings, "
              f"{rs.sim_ms:.0f} sim-ms")

    # A late, historical correction: yesterday's ping arrives now.
    topic.append(ping(rng, 999, T0 - 86400))
    loader.drain()
    rs = engine.st_range_query(
        "pings", Envelope(116.1, 39.8, 116.5, 40.0),
        T0 - 86400 - 1, T0 - 86400 + 1)
    print(f"late historical event indexed and queryable: "
          f"{len(rs.rows)} row(s) found in yesterday's window")


if __name__ == "__main__":
    main()
