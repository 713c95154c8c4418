package main

import (
	"fmt"
	"time"

	"repro/internal/rdb"
)

// probeFor is how long each layer probe repeats its call.
const probeFor = 300 * time.Millisecond

// probe runs the three layer probes against db after the measured phase,
// with the simulated transfer cost disarmed, so each times one layer's own
// work.
//   - storage.fetch_hit_ns: BufferPool.Fetch+Unpin of a resident page.
//   - rdb.seqscan_rows_per_s: SELECT MIN(cost) FROM TEdges, the
//     SeqScan+Aggregate+decode path of the frontier select.
//   - rdb.index_eq_us: a prepared TEdges equality probe, the access path
//     of the expansions.
func probe(cfg config, db *rdb.DB, v map[string]float64) error {
	db.SetSimulatedIOLatency(0)
	pool := db.Pool()
	start := time.Now()
	pg, err := pool.Fetch(0)
	if err != nil {
		return fmt.Errorf("probe fetch: %w", err)
	}
	pool.Unpin(pg, false)
	t0 := time.Now()
	n := 0
	for time.Since(t0) < probeFor {
		for i := 0; i < 1000; i++ {
			pg, err := pool.Fetch(0)
			if err != nil {
				return fmt.Errorf("probe fetch: %w", err)
			}
			pool.Unpin(pg, false)
		}
		n += 1000
	}
	v["storage.fetch_hit_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	cfg.tracer.add(0, 0, "probe.fetch_hit", "storage", start, time.Now(), false)

	start = time.Now()
	rows, _, err := db.QueryInt("SELECT COUNT(*) FROM TEdges")
	if err != nil {
		return fmt.Errorf("probe count: %w", err)
	}
	scan, err := db.Prepare("SELECT MIN(cost) FROM TEdges")
	if err != nil {
		return fmt.Errorf("probe seqscan: %w", err)
	}
	if _, _, err := scan.QueryInt(); err != nil { // fault the table in
		return fmt.Errorf("probe seqscan: %w", err)
	}
	t0 = time.Now()
	for n = 0; n < 3 || time.Since(t0) < probeFor; n++ {
		if _, _, err := scan.QueryInt(); err != nil {
			return fmt.Errorf("probe seqscan: %w", err)
		}
	}
	v["rdb.seqscan_rows_per_s"] = float64(rows) * float64(n) / time.Since(t0).Seconds()
	cfg.tracer.add(0, 0, "probe.seqscan", "rdb", start, time.Now(), false)

	start = time.Now()
	eq, err := db.Prepare("SELECT tid, cost FROM TEdges WHERE fid = ?")
	if err != nil {
		return fmt.Errorf("probe index eq: %w", err)
	}
	t0 = time.Now()
	for n = 0; n < 3 || time.Since(t0) < probeFor; n++ {
		if _, err := eq.Query(int64(n % 1000)); err != nil {
			return fmt.Errorf("probe index eq: %w", err)
		}
	}
	v["rdb.index_eq_us"] = float64(time.Since(t0).Microseconds()) / float64(n)
	cfg.tracer.add(0, 0, "probe.index_eq", "rdb", start, time.Now(), false)
	return nil
}
