// Command perfbench is the repository's benchmark. It runs one workload
// per invocation against the engine's public entry points — core.Engine
// and shard.ShardedEngine in process, spdbd over HTTP as a child process —
// checks every answer against the in-memory Dijkstra (graph.MDJ), and
// prints one JSON result line last on standard output:
//
//	perfbench --workload warm_bsdj --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, from spans recorded around each call
// and from deltas of the counters the program exposes, and the spans are
// written to <out>/traces/. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// config is what every workload receives.
type config struct {
	seed   int64
	dur    time.Duration
	out    string  // build directory: work files and traces go under it
	spdbd  string  // path of the spdbd binary (http_mixed)
	tracer *tracer // nil in an untraced run
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload measured: every metric it defines, by name.
type outcome struct {
	attempted, failed int
	wrong             int // answers that failed the correctness gate
	values            map[string]float64
}

// endToEnd are the metrics of an untraced run, measured on every workload.
var endToEnd = map[string]string{
	"qps":          "1/s",
	"query_p50_ms": "ms",
	"query_p90_ms": "ms",
	"setup_s":      "s",
	"rss_peak_mb":  "MB",
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer (no shards, no writes, no HTTP) reports 0 for it.
var perLayer = map[string]string{
	"core.statements_per_query":        "count",
	"core.iterations_per_query":        "count",
	"core.expansions_per_query":        "count",
	"core.visited_rows_per_query":      "count",
	"core.sql_ms":                      "ms",
	"core.pe_ms":                       "ms",
	"core.sc_ms":                       "ms",
	"core.fpr_ms":                      "ms",
	"core.loop_ms":                     "ms",
	"core.gate_wait_ms":                "ms",
	"core.plan_ms":                     "ms",
	"core.cache_hit_ratio":             "ratio",
	"core.mutation.repaired_per_batch": "count",
	"core.mutation.rebuilt_per_batch":  "count",
	"rdb.us_per_statement":             "us",
	"rdb.parse_plan_ms":                "ms",
	"rdb.plan_cache_hit_ratio":         "ratio",
	"rdb.seqscan_rows_per_s":           "1/s",
	"rdb.index_eq_us":                  "us",
	"storage.pool_hit_ratio":           "ratio",
	"storage.misses_per_query":         "count",
	"storage.evictions_per_query":      "count",
	"storage.read_delay_ms_per_query":  "ms",
	"storage.fence_waits":              "count",
	"storage.db_pages":                 "count",
	"storage.fetch_hit_ns":             "ns",
	"shard.supersteps_per_query":       "count",
	"shard.exchanged_per_query":        "count",
	"shard.statements_per_query":       "count",
	"shard.misses_per_query":           "count",
	"wal.syncs_per_batch":              "count",
	"wal.sync_ms_per_batch":            "ms",
	"wal.bytes_per_mutation":           "bytes",
	"spdbd.overhead_ms":                "ms",
	"setup.load_s":                     "s",
	"setup.segtable_s":                 "s",
	"setup.snapshot_s":                 "s",
	"ref.mdj_p50_ms":                   "ms",
	"mutation_p50_ms":                  "ms",
	"mutation_p90_ms":                  "ms",
	"error_rate":                       "ratio",
	"trace.overhead_pct":               "%",
	"self.spdbd_ms":                    "ms",
	"self.core_ms":                     "ms",
	"self.shard_ms":                    "ms",
	"self.rdb_ms":                      "ms",
}

var workloads = map[string]func(config) (outcome, error){
	"warm_bsdj":      runWarmBSDJ,
	"io_bsdj":        runIOBSDJ,
	"io_bsdj_2shard": runIOBSDJ2Shard,
	"http_mixed":     runHTTPMixed,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: warm_bsdj | io_bsdj | io_bsdj_2shard | http_mixed")
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Int("seconds", 20, "length of the measured phase")
		traced   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span dump")
		out      = flag.String("out", ".bench_build", "directory for work files and span dumps")
		spdbd    = flag.String("spdbd", ".bench_build/bin/spdbd", "spdbd binary (http_mixed)")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload warm_bsdj|io_bsdj|io_bsdj_2shard|http_mixed, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, dur: time.Duration(*seconds) * time.Second, out: *out, spdbd: *spdbd}
	if *traced == 1 {
		cfg.tracer = newTracer()
	}
	if err := os.MkdirAll(workDir(cfg), 0o755); err != nil {
		fail(err)
	}
	oc, err := run(cfg)
	os.RemoveAll(workDir(cfg))
	if err != nil {
		fail(fmt.Errorf("%s: %w", *workload, err))
	}
	if cfg.tracer != nil {
		if err := os.MkdirAll(*out+"/traces", 0o755); err != nil {
			fail(err)
		}
		path := fmt.Sprintf("%s/traces/%s-seed%d.jsonl", *out, *workload, *seed)
		if err := cfg.tracer.write(path); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(cfg.tracer.snapshot()), path)
	}
	res, err := report(oc, cfg.tracer != nil)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report selects the metrics of the run's kind and fills the result.
func report(oc outcome, traced bool) (result, error) {
	res := result{Correct: oc.wrong == 0 && oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed,
		Metrics: map[string]metric{}}
	if oc.attempted < 1 {
		return res, fmt.Errorf("no operation completed")
	}
	oc.values["error_rate"] = float64(oc.failed) / float64(oc.attempted)
	set := endToEnd
	if traced {
		set = perLayer
	}
	for name, unit := range set {
		v, ok := oc.values[name]
		if !ok && !traced {
			return res, fmt.Errorf("workload did not measure %s", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return res, nil
}

// workDir holds a run's scratch files (database files, spdbd data
// directories, the CSV graph); it is removed when the run ends.
func workDir(cfg config) string { return fmt.Sprintf("%s/work-%d", cfg.out, os.Getpid()) }

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
