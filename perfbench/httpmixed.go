package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/storage"
)

// http_mixed drives a spdbd child over HTTP with two closed-loop
// connections. One operation in twenty is a POST /edges batch that raises
// one edge from a fixed list and restores the edge the same connection
// raised last; the rest are POST /query on a Zipf-popular pair set.
const (
	httpClients   = 2
	popularPairs  = 256
	zipfS         = 1.1 // gives a path-cache hit ratio near 0.3 at this write share
	mutateEvery   = 20
	listedEdges   = 16
	raiseBy       = 500
	quiescedPairs = 32
	httpLthd      = 20
)

// queryReply is the part of spdbd's /query answer the benchmark reads.
type queryReply struct {
	Found      bool    `json:"found"`
	Distance   int64   `json:"distance"`
	Path       []int64 `json:"path"`
	Cached     bool    `json:"cached"`
	Statements int     `json:"statements"`
	Iterations int     `json:"iterations"`
	Error      string  `json:"error"`
	Trace      *struct {
		GateWaitUS int64 `json:"gate_wait_us"`
		PlanUS     int64 `json:"plan_us"`
		SQLUS      int64 `json:"sql_us"`
		FrontierUS int64 `json:"frontier_us"`
		PEUS       int64 `json:"pe_us"`
		SCUS       int64 `json:"sc_us"`
		FPRUS      int64 `json:"fpr_us"`
		TotalUS    int64 `json:"total_us"`
	} `json:"trace"`
}

type edgesReply struct {
	Applied    int    `json:"applied"`
	DurationUS int64  `json:"duration_us"`
	Error      string `json:"error"`
}

// statsDoc is the part of spdbd's /stats the benchmark reads.
type statsDoc struct {
	Mutations struct {
		Applied      uint64 `json:"applied"`
		Batches      uint64 `json:"batches"`
		SegRebuilds  uint64 `json:"seg_rebuilds"`
		RowsRepaired uint64 `json:"rows_repaired"`
	} `json:"mutations"`
	Durability core.DurabilityStats `json:"durability"`
	Cache      struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	DB struct {
		Statements  uint64 `json:"statements"`
		ParsePlanUS uint64 `json:"parse_plan_us"`
		ExecUS      uint64 `json:"exec_us"`
		PlanCache   struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"plan_cache"`
		Pool storage.PoolStats `json:"pool"`
		IO   storage.IOStats   `json:"io"`
	} `json:"db"`
}

func (s statsDoc) counters() dbCounters {
	return dbCounters{stmts: s.DB.Statements, parseNs: s.DB.ParsePlanUS * 1e3, execNs: s.DB.ExecUS * 1e3,
		planHits: s.DB.PlanCache.Hits, planMisses: s.DB.PlanCache.Misses, pool: s.DB.Pool,
		reads: s.DB.IO.Reads, readDelay: s.DB.IO.ReadDelay}
}

// server is one spdbd child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	lines  sync.WaitGroup // the stdout reader
	mu     sync.Mutex
	events map[string]time.Time // first arrival of each start-up line
	exited chan struct{}
}

// startupLines are the spdbd log lines that bound the set-up stages.
var startupLines = []string{"spdbd: loading graph", "spdbd: building SegTable", "spdbd: SegTable(", "spdbd: snapshot v"}

// startServer launches spdbd and waits for the first 200 from /readyz.
func startServer(cfg config, csv, dataDir string) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(cfg.spdbd, "-load", csv, "-alg", "AUTO", "-lthd", fmt.Sprint(httpLthd),
		"-data-dir", dataDir, "-snapshot-on-exit=false", "-drain", "2s", "-addr", addr)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	sv := &server{cmd: cmd, base: "http://" + addr, events: map[string]time.Time{}, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start spdbd: %w", err)
	}
	sv.lines.Add(1)
	go func() {
		defer sv.lines.Done()
		defer close(sv.exited)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			now := time.Now()
			sv.mu.Lock()
			for _, p := range startupLines {
				if _, seen := sv.events[p]; !seen && strings.HasPrefix(sc.Text(), p) {
					sv.events[p] = now
				}
			}
			sv.mu.Unlock()
		}
		io.Copy(io.Discard, out)
	}()
	poll := &http.Client{Timeout: time.Second}
	for deadline := start.Add(90 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		select {
		case <-sv.exited:
			sv.stop()
			return nil, 0, fmt.Errorf("spdbd exited during start-up")
		default:
		}
		resp, err := poll.Get(sv.base + "/readyz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			ready := time.Since(start)
			cfg.tracer.add(0, 0, "setup.spdbd", "spdbd", start, start.Add(ready), false)
			return sv, ready, nil
		}
	}
	sv.stop()
	return nil, 0, fmt.Errorf("spdbd not ready within 90s")
}

// stage returns the time between two start-up lines (0 if either is missing).
func (sv *server) stage(from, to string) time.Duration {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	a, okA := sv.events[from]
	b, okB := sv.events[to]
	if !okA || !okB {
		return 0
	}
	return b.Sub(a)
}

// stop shuts spdbd down gracefully, killing it if it lingers, and waits
// for it and its output reader to end.
func (sv *server) stop() {
	sv.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-sv.exited:
	case <-time.After(15 * time.Second):
		sv.cmd.Process.Kill()
	}
	sv.lines.Wait()
	sv.cmd.Wait()
}

// post sends a JSON body and decodes a JSON reply.
func post(c *http.Client, url string, body, reply any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(reply); err != nil {
		return resp.StatusCode, fmt.Errorf("decode %s reply: %w", url, err)
	}
	return resp.StatusCode, nil
}

func (sv *server) stats(c *http.Client) (statsDoc, error) {
	var st statsDoc
	resp, err := c.Get(sv.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// listedEdge is one edge the writers raise and restore.
type listedEdge struct{ from, to, weight int64 }

// pickEdges takes the middle hop of the shortest path of each pair, so
// raising it changes shortest paths. Hops with parallel edges are skipped:
// restoring one weight must restore the original graph exactly.
func pickEdges(g *graph.Graph, pairs [][2]int64) []listedEdge {
	seen := map[[2]int64]bool{}
	var out []listedEdge
	for _, p := range pairs {
		if len(out) == listedEdges {
			break
		}
		path := graph.MDJ(g, p[0], p[1]).Path
		if len(path) < 2 {
			continue
		}
		u, v := path[(len(path)-1)/2], path[(len(path)-1)/2+1]
		var ws []int64
		g.OutEdges(u, func(x, w int64) {
			if x == v {
				ws = append(ws, w)
			}
		})
		if len(ws) != 1 || seen[[2]int64{u, v}] {
			continue
		}
		seen[[2]int64{u, v}] = true
		out = append(out, listedEdge{u, v, ws[0]})
	}
	return out
}

// withWeights returns a copy of g with the given edges set to new weights.
func withWeights(g *graph.Graph, edges []listedEdge, raised func(i int) bool) (*graph.Graph, error) {
	c := g.Clone()
	for i, e := range edges {
		if raised(i) {
			if _, err := c.UpdateEdgeWeight(e.from, e.to, e.weight+raiseBy); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// zipf samples ranks 0..n-1 with P(r) ∝ 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	var t float64
	for r := range z.cdf {
		t += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = t
	}
	for r := range z.cdf {
		z.cdf[r] /= t
	}
	return z
}

func (z zipf) rank(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// httpRec is one measured HTTP operation.
type httpRec struct {
	mutation bool
	ans      answer
	reply    queryReply
	lat      time.Duration
	err      error
	traced   bool
}

func runHTTPMixed(cfg config) (oc outcome, err error) {
	g := graph.Power(5000, 4, graphSeed)
	csv := workDir(cfg) + "/graph.csv"
	if err := g.SaveFile(csv); err != nil {
		return oc, err
	}
	// The popular set, like the graph and the edge list, is fixed: with a
	// handful of pairs taking most requests, drawing it per seed would let
	// the seed choose the workload's cost. The seed drives the request
	// sequence: each connection's Zipf draws.
	seq := newPairSeq(g, drawPairs(g, rand.New(rand.NewSource(graphSeed)), poolPairs, nil))
	popular := make([][2]int64, popularPairs)
	for r := range popular {
		popular[r] = seq.next()
	}
	// The edge list is the same for every seed: the repair work a write
	// costs depends on its edge, and the seed should vary only the reads.
	edges := pickEdges(g, drawPairs(g, rand.New(rand.NewSource(graphSeed)), 4*listedEdges, nil))
	if len(edges) < httpClients {
		return oc, fmt.Errorf("only %d raisable edges found", len(edges))
	}

	var load, segtable, snapshot []float64
	rep := 0
	sv, setupS, err := repeatSetup(3, func() (*server, error) {
		dir := fmt.Sprintf("%s/data-%d", workDir(cfg), rep)
		rep++
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		s, _, err := startServer(cfg, csv, dir)
		if err != nil {
			return nil, err
		}
		load = append(load, s.stage(startupLines[0], startupLines[1]).Seconds())
		segtable = append(segtable, s.stage(startupLines[1], startupLines[2]).Seconds())
		snapshot = append(snapshot, s.stage(startupLines[2], startupLines[3]).Seconds())
		return s, nil
	}, (*server).stop)
	if err != nil {
		return oc, fmt.Errorf("set-up: %w", err)
	}
	defer sv.stop()

	client := &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: httpClients, MaxIdleConnsPerHost: httpClients}}
	before, err := sv.stats(client)
	if err != nil {
		return oc, fmt.Errorf("stats: %w", err)
	}
	z := newZipf(popularPairs, zipfS)
	var mu sync.Mutex
	var recs []httpRec
	// Per connection: its RNG, its op count, the listed edges it owns (i ≡ c
	// mod httpClients, so no two writers touch one edge), the one it holds
	// raised (-1 none) and the position of the next one it raises.
	type conn struct {
		rng         *rand.Rand
		ops, raised int
		own         []int
		next        int
	}
	conns := make([]*conn, httpClients)
	for c := range conns {
		conns[c] = &conn{rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(c))), raised: -1}
	}
	for i := range edges {
		conns[i%httpClients].own = append(conns[i%httpClients].own, i)
	}
	wall := closedLoop(httpClients, cfg.dur, func(c int, i int64) {
		cn := conns[c]
		cn.ops++
		traced := cfg.tracer != nil && i%2 == 0
		var rec httpRec
		t0 := time.Now()
		if cn.ops%mutateEvery == mutateEvery/2 {
			rec.mutation = true
			batch := []map[string]any{}
			if cn.raised >= 0 {
				e := edges[cn.raised]
				batch = append(batch, map[string]any{"op": "update", "from": e.from, "to": e.to, "weight": e.weight})
			}
			raise := cn.own[cn.next]
			e := edges[raise]
			batch = append(batch, map[string]any{"op": "update", "from": e.from, "to": e.to, "weight": e.weight + raiseBy})
			var rep edgesReply
			status, err := post(client, sv.base+"/edges", map[string]any{"mutations": batch}, &rep)
			rec.lat = time.Since(t0)
			switch {
			case err != nil:
				rec.err = err
			case status != http.StatusOK || rep.Applied != len(batch):
				rec.err = fmt.Errorf("POST /edges: status %d, applied %d of %d: %s", status, rep.Applied, len(batch), rep.Error)
			default:
				cn.raised, cn.next = raise, (cn.next+1)%len(cn.own)
			}
			if traced {
				root := cfg.tracer.add(i+1, 0, "spdbd.POST /edges", "spdbd", t0, t0.Add(rec.lat), false)
				cfg.tracer.add(i+1, root, "core.ApplyMutations", "core", t0, t0.Add(time.Duration(rep.DurationUS)*time.Microsecond), true)
			}
		} else {
			p := popular[z.rank(cn.rng)]
			rec.ans = answer{s: p[0], t: p[1]}
			url := sv.base + "/query"
			if traced {
				url += "?debug=trace"
			}
			status, err := post(client, url, map[string]any{"source": p[0], "target": p[1]}, &rec.reply)
			rec.lat = time.Since(t0)
			switch {
			case err != nil:
				rec.err = err
			case status != http.StatusOK || rec.reply.Error != "":
				rec.err = fmt.Errorf("POST /query: status %d: %s", status, rec.reply.Error)
			}
			rec.ans.found, rec.ans.dist, rec.ans.path = rec.reply.Found, rec.reply.Distance, rec.reply.Path
			if tr := rec.reply.Trace; traced && tr != nil {
				us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
				root := cfg.tracer.add(i+1, 0, "spdbd.POST /query", "spdbd", t0, t0.Add(rec.lat), false)
				engineStages(cfg.tracer, i+1, root, t0, us(tr.GateWaitUS), us(tr.PlanUS), us(tr.TotalUS), us(tr.SQLUS))
			}
		}
		rec.traced = traced
		mu.Lock()
		recs = append(recs, rec)
		mu.Unlock()
	})
	after, err := sv.stats(client)
	if err != nil {
		return oc, fmt.Errorf("stats: %w", err)
	}
	rss, err := peakRSSMB(sv.cmd.Process.Pid)
	if err != nil {
		return oc, err
	}

	// The bracket every in-flight answer must lie in.
	hi, err := withWeights(g, edges, func(int) bool { return true })
	if err != nil {
		return oc, err
	}
	type bracket struct{ lo, hi graph.PathResult }
	memo := map[[2]int64]bracket{}
	var mdjLats []time.Duration
	oc = outcome{values: map[string]float64{}}
	v := oc.values
	var qLats, mLats []time.Duration
	var ov overhead
	var stmts, iters int
	var tr struct{ n, gate, plan, sql, pe, sc, fpr, frontier, overhead float64 }
	queries := 0
	traced := map[int64]bool{}
	for _, r := range recs {
		oc.attempted++
		if r.err != nil {
			oc.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", r.err)
			continue
		}
		if r.mutation {
			mLats = append(mLats, r.lat)
			continue
		}
		p := [2]int64{r.ans.s, r.ans.t}
		b, ok := memo[p]
		if !ok {
			t0 := time.Now()
			b.lo = graph.MDJ(g, p[0], p[1])
			mdjLats = append(mdjLats, time.Since(t0))
			b.hi = graph.MDJ(hi, p[0], p[1])
			memo[p] = b
		}
		if err := checkBracket(g, hi, r.ans, b.lo, b.hi); err != nil {
			oc.wrong++
			oc.failed++
			fmt.Fprintf(os.Stderr, "perfbench: wrong answer: %v\n", err)
			continue
		}
		queries++
		qLats = append(qLats, r.lat)
		stmts += r.reply.Statements
		iters += r.reply.Iterations
		ov.add(r.traced, r.lat, r.reply.Statements)
		if t := r.reply.Trace; t != nil {
			tr.n++
			tr.gate += float64(t.GateWaitUS) / 1e3
			tr.plan += float64(t.PlanUS) / 1e3
			tr.sql += float64(t.SQLUS) / 1e3
			tr.pe += float64(t.PEUS) / 1e3
			tr.sc += float64(t.SCUS) / 1e3
			tr.fpr += float64(t.FPRUS) / 1e3
			tr.frontier += float64(t.FrontierUS) / 1e3
			tr.overhead += ms(r.lat) - float64(t.GateWaitUS+t.PlanUS+t.TotalUS)/1e3
		}
	}

	// Quiesced pass: with the writers stopped, answers must be exact on the
	// graph as the writers left it.
	now, err := withWeights(g, edges, func(i int) bool {
		for _, cn := range conns {
			if cn.raised == i {
				return true
			}
		}
		return false
	})
	if err != nil {
		return oc, err
	}
	for _, p := range popular[:quiescedPairs] {
		oc.attempted++
		var rep queryReply
		status, err := post(client, sv.base+"/query", map[string]any{"source": p[0], "target": p[1]}, &rep)
		if err == nil && (status != http.StatusOK || rep.Error != "") {
			err = fmt.Errorf("quiesced POST /query: status %d: %s", status, rep.Error)
		}
		if err == nil {
			err = checkExact(now, answer{s: p[0], t: p[1], found: rep.Found, dist: rep.Distance, path: rep.Path}, graph.MDJ(now, p[0], p[1]))
			if err != nil {
				oc.wrong++
			}
		}
		if err != nil {
			oc.failed++
			fmt.Fprintf(os.Stderr, "perfbench: quiesced: %v\n", err)
		}
	}

	v["qps"] = float64(queries) / wall.Seconds()
	v["query_p50_ms"] = ms(percentile(qLats, 50))
	v["query_p90_ms"] = ms(percentile(qLats, 90))
	warnTail("query", len(qLats))
	v["mutation_p50_ms"] = ms(percentile(mLats, 50))
	v["mutation_p90_ms"] = ms(percentile(mLats, 90))
	warnTail("mutation", len(mLats))
	v["setup_s"] = setupS
	v["rss_peak_mb"] = rss
	if cfg.tracer == nil {
		return oc, nil
	}
	n := float64(queries)
	v["setup.load_s"] = median(load)
	v["setup.segtable_s"] = median(segtable)
	v["setup.snapshot_s"] = median(snapshot)
	v["core.statements_per_query"] = float64(stmts) / n
	v["core.iterations_per_query"] = float64(iters) / n
	v["core.gate_wait_ms"] = ratio(tr.gate, tr.n)
	v["core.plan_ms"] = ratio(tr.plan, tr.n)
	v["core.sql_ms"] = ratio(tr.sql, tr.n)
	v["core.pe_ms"] = ratio(tr.pe, tr.n)
	v["core.sc_ms"] = ratio(tr.sc, tr.n)
	v["core.fpr_ms"] = ratio(tr.fpr, tr.n)
	v["core.loop_ms"] = ratio(tr.frontier, tr.n)
	v["spdbd.overhead_ms"] = ratio(tr.overhead, tr.n)
	hits, misses := float64(after.Cache.Hits-before.Cache.Hits), float64(after.Cache.Misses-before.Cache.Misses)
	v["core.cache_hit_ratio"] = ratio(hits, hits+misses)
	batches := float64(after.Mutations.Batches - before.Mutations.Batches)
	v["core.mutation.repaired_per_batch"] = ratio(float64(after.Mutations.RowsRepaired-before.Mutations.RowsRepaired), batches)
	v["core.mutation.rebuilt_per_batch"] = ratio(float64(after.Mutations.SegRebuilds-before.Mutations.SegRebuilds), batches)
	wa, wb := after.Durability.WAL, before.Durability.WAL
	v["wal.syncs_per_batch"] = ratio(float64(wa.Syncs-wb.Syncs), batches)
	v["wal.sync_ms_per_batch"] = ratio(ms(wa.SyncTime-wb.SyncTime), batches)
	v["wal.bytes_per_mutation"] = ratio(float64(wa.Bytes-wb.Bytes), float64(after.Mutations.Applied-before.Mutations.Applied))
	dbDelta(v, before.counters(), after.counters(), n)
	v["storage.db_pages"] = float64(after.DB.IO.Allocs)
	for _, s := range cfg.tracer.snapshot() {
		if s.Op > 0 && s.Name == "spdbd.POST /query" {
			traced[s.Op] = true
		}
	}
	self := layerSelf(cfg.tracer.snapshot(), traced)
	v["self.spdbd_ms"] = ms(self["spdbd"])
	v["self.core_ms"] = ms(self["core"])
	v["self.rdb_ms"] = ms(self["rdb"])
	v["trace.overhead_pct"] = ov.pct()
	v["ref.mdj_p50_ms"] = ms(percentile(mdjLats, 50))
	return oc, nil
}
