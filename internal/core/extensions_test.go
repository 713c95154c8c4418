package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/rdb"
)

// segTableSnapshot reads (fid,tid)->cost maps for comparison.
func segTableSnapshot(t *testing.T, e *Engine, tbl string) map[[2]int64]int64 {
	t.Helper()
	rows, err := e.DB().Query("SELECT fid, tid, cost FROM " + tbl)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[[2]int64]int64, rows.Len())
	for _, r := range rows.Data {
		out[[2]int64{r[0].I, r[1].I}] = r[2].I
	}
	return out
}

// TestIncrementalSegMaintenance: inserting edges one by one with
// InsertEdge must leave the SegTable with exactly the distances a from-
// scratch rebuild computes.
func TestIncrementalSegMaintenance(t *testing.T) {
	const lthd = 20
	rng := rand.New(rand.NewSource(77))
	base := graph.Random(30, 60, 13)

	// Engine A: build from the base graph, then insert extra edges
	// incrementally.
	eA := newTestEngine(t, base, rdb.Options{}, Options{})
	if _, err := eA.BuildSegTable(lthd); err != nil {
		t.Fatal(err)
	}
	var extra []graph.Edge
	for i := 0; i < 15; i++ {
		u, v := rng.Int63n(base.N), rng.Int63n(base.N)
		if u == v {
			continue
		}
		w := 1 + rng.Int63n(30)
		extra = append(extra, graph.Edge{From: u, To: v, Weight: w})
		if _, err := eA.InsertEdge(u, v, w); err != nil {
			t.Fatalf("insert edge %d: %v", i, err)
		}
	}

	// Engine B: build from scratch over the final graph.
	full, err := graph.New(base.N, append(append([]graph.Edge(nil), base.Edges...), extra...))
	if err != nil {
		t.Fatal(err)
	}
	eB := newTestEngine(t, full, rdb.Options{}, Options{})
	if _, err := eB.BuildSegTable(lthd); err != nil {
		t.Fatal(err)
	}

	for _, tbl := range []string{TblOutSegs, TblInSegs} {
		inc := segTableSnapshot(t, eA, tbl)
		ref := segTableSnapshot(t, eB, tbl)
		for pair, want := range ref {
			got, ok := inc[pair]
			if !ok {
				t.Fatalf("%s: incremental misses pair %v (cost %d)", tbl, pair, want)
			}
			if got != want {
				t.Fatalf("%s: pair %v cost %d, rebuild says %d", tbl, pair, got, want)
			}
		}
		for pair, got := range inc {
			if _, ok := ref[pair]; !ok {
				t.Fatalf("%s: incremental has extra pair %v (cost %d)", tbl, pair, got)
			}
		}
	}

	// And BSEG queries on the maintained engine stay exact.
	for _, q := range graph.RandomQueries(full, 6, 3) {
		ref := graph.MDJ(full, q[0], q[1])
		p, _, err := shortestPath(eA, AlgBSEG, q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if p.Found != ref.Found || (p.Found && p.Length != ref.Distance) {
			t.Fatalf("BSEG after maintenance: %+v vs %+v", p, ref)
		}
	}
}

// TestIncrementalMaintenancePostgresProfile covers the merge-free path.
func TestIncrementalMaintenancePostgresProfile(t *testing.T) {
	base := graph.Random(20, 40, 9)
	eA := newTestEngine(t, base, rdb.Options{Profile: rdb.ProfilePostgreSQL9}, Options{})
	if _, err := eA.BuildSegTable(15); err != nil {
		t.Fatal(err)
	}
	if _, err := eA.InsertEdge(0, 7, 2); err != nil {
		t.Fatal(err)
	}
	full, _ := graph.New(base.N, append(append([]graph.Edge(nil), base.Edges...),
		graph.Edge{From: 0, To: 7, Weight: 2}))
	eB := newTestEngine(t, full, rdb.Options{}, Options{})
	if _, err := eB.BuildSegTable(15); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{TblOutSegs, TblInSegs} {
		inc := segTableSnapshot(t, eA, tbl)
		ref := segTableSnapshot(t, eB, tbl)
		if len(inc) != len(ref) {
			t.Fatalf("%s: size %d vs %d", tbl, len(inc), len(ref))
		}
		for pair, want := range ref {
			if inc[pair] != want {
				t.Fatalf("%s: pair %v cost %d want %d", tbl, pair, inc[pair], want)
			}
		}
	}
}

// TestInsertEdgeWithoutSegTable: plain edge insertion works pre-index.
func TestInsertEdgeWithoutSegTable(t *testing.T) {
	g := graph.Random(10, 20, 4)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	before := e.Edges()
	if _, err := e.InsertEdge(0, 5, 3); err != nil {
		t.Fatal(err)
	}
	if e.Edges() != before+1 {
		t.Fatalf("edge count: %d", e.Edges())
	}
	if _, err := e.InsertEdge(0, 5, 0); err == nil {
		t.Fatal("zero weight must fail")
	}
	if _, err := e.InsertEdge(0, 99, 1); err == nil {
		t.Fatal("out of range must fail")
	}
}
