-- A tour of every kind of relation the catalog holds: a common table,
-- a plugin table, a cached view and the sys.* system tables.
-- Run it with:
--   PYTHONPATH=src python -m repro --script examples/justql_tour.sql
-- CI diffs its output against examples/justql_tour.out.

CREATE TABLE orders (
    fid integer:primary key,
    time date,
    geom point:srid=4326,
    amount double
);
INSERT INTO orders VALUES
    (1, 1538352000, st_makePoint(116.39, 39.91), 25.0),
    (2, 1538355600, st_makePoint(116.41, 39.93), 12.5),
    (3, 1538359200, st_makePoint(116.45, 39.95), 40.0),
    (4, 1538362800, st_makePoint(116.52, 40.01), 8.0);
CREATE TABLE fleet AS trajectory;
CREATE VIEW big_orders AS
    SELECT fid, amount FROM orders WHERE amount > 10;

SHOW TABLES;
SHOW VIEWS;

DESC orders;
DESC fleet;
DESC big_orders;
DESC sys.tables;

EXPLAIN SELECT fid FROM big_orders WHERE amount > 20;
EXPLAIN SELECT name, row_count FROM sys.tables WHERE kind = 'common';

SELECT name, kind, plugin_type, indexes, row_count FROM sys.tables;
SELECT fid, amount FROM big_orders ORDER BY amount DESC;

-- The expression grammar: NOT binds tighter than AND, and AND than
-- OR, unary minus binds tighter than * and %, and BETWEEN takes its
-- own AND.
SELECT fid FROM orders
    WHERE NOT amount > 20 AND fid > 1 OR fid = 3 ORDER BY fid;
SELECT fid, -amount * 2 % 7 AS m, - fid * -3 + 1 AS n, -(fid - 5) % 3 AS r
    FROM orders ORDER BY fid;
SELECT fid FROM orders
    WHERE fid <> 2 AND amount BETWEEN 10 AND 30 AND fid < 4 ORDER BY fid;
SELECT fid, amount FROM orders
    WHERE geom WITHIN st_makeMBR(116.38, 39.9, 116.46, 39.96)
      AND time BETWEEN 1538352000 AND 1538359200 ORDER BY fid;
SELECT count(*) AS n FROM orders
    WHERE amount IS NOT NULL AND NOT (fid = 1 OR fid = 4);

-- Aggregates and sorts over NULLs: count(col) counts the non-NULL
-- values and avg skips them.  NULLs sort first ascending and last
-- descending, as in Spark, and rows that tie on every key keep their
-- scan order.
CREATE TABLE trips (
    fid integer:primary key,
    time date,
    geom point:srid=4326,
    fare double,
    zone string
);
INSERT INTO trips VALUES
    (1, 1538352000, st_makePoint(116.39, 39.91), 10.0, 'north'),
    (2, 1538352600, st_makePoint(116.40, 39.92), NULL, 'north'),
    (3, 1538353200, st_makePoint(116.41, 39.93), 14.5, 'south'),
    (4, 1538353800, st_makePoint(116.42, 39.94), 14.5, NULL),
    (5, 1538354400, st_makePoint(116.43, 39.95), NULL, 'south'),
    (6, 1538355000, st_makePoint(116.44, 39.96), 7.25, 'north'),
    (7, 1538355600, st_makePoint(116.45, 39.97), 14.5, 'south');
SELECT zone, count(*) AS n, count(fare) AS fares, avg(fare) AS mean
    FROM trips GROUP BY zone ORDER BY zone;
SELECT zone, fare, fid FROM trips ORDER BY fare DESC, zone DESC LIMIT 5;
SELECT fid, zone FROM trips WHERE zone IN ('north', 'east')
    AND fid NOT IN (6) ORDER BY fid;
SELECT fid, fare IN (10.0, NULL) AS maybe, fare NOT IN (14.5) AS other
    FROM trips ORDER BY fid;
DROP TABLE trips;

DROP VIEW big_orders;
DROP TABLE fleet;
SHOW TABLES;
SHOW VIEWS;
SELECT name, kind FROM sys.tables;
