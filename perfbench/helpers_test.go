package main

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

func TestQuotablePercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{{9, 0}, {10, 0}, {20, 50}, {50, 80}, {99, 89}, {100, 90}, {1000, 99}} {
		if got := quotablePercentile(c.n); got != c.want {
			t.Errorf("quotablePercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	if got := percentile(s, 90); got != 90*time.Millisecond {
		t.Errorf("p90 of 1..100ms = %v, want 90ms (ten samples beyond it)", got)
	}
	if got := percentile(s, 50); got != 50*time.Millisecond {
		t.Errorf("p50 of 1..100ms = %v, want 50ms", got)
	}
	if s[0] != 100*time.Millisecond {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]time.Duration{3, 1, 2}, 50); got != 2 {
		t.Errorf("p50 of {1,2,3} = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of {1,2,3,4} = %v, want 2.5", got)
	}
}

func span(id, parent int64, layer string, start, end time.Duration) Span {
	return Span{Op: 1, ID: id, Parent: parent, Layer: layer, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		span(1, 0, "spdbd", 0, 100),
		span(2, 1, "core", 10, 30),  // overlaps 3: the union counts once
		span(3, 1, "core", 20, 50),  //
		span(4, 1, "core", 90, 120), // reaches past its parent: 10 inside
		span(5, 3, "rdb", 25, 45),   // a grandchild does not touch span 1
		span(6, 3, "rdb", 200, 300), // wholly outside its parent: no cover
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 100 - 40 - 10, 2: 20, 3: 30 - 20, 4: 30, 5: 20, 6: 100} {
		if self[id] != want {
			t.Errorf("self(span %d) = %v, want %v", id, self[id], want)
		}
	}
	layers := layerSelf(spans, map[int64]bool{1: true})
	for l, want := range map[string]time.Duration{"spdbd": 50, "core": 20 + 10 + 30, "rdb": 120} {
		if layers[l] != want {
			t.Errorf("layer %s self = %v, want %v", l, layers[l], want)
		}
	}
	if got := layerSelf(spans, map[int64]bool{2: true}); len(got) != 0 {
		t.Errorf("self over an op with no spans = %v, want none", got)
	}
}

// diamond: 0→1→3 costs 2+2, 0→2→3 costs 1+5, 0→3 directly costs 10.
func diamond(t *testing.T) *graph.Graph {
	g, err := graph.New(4, []graph.Edge{{From: 0, To: 1, Weight: 2}, {From: 1, To: 3, Weight: 2},
		{From: 0, To: 2, Weight: 1}, {From: 2, To: 3, Weight: 5}, {From: 0, To: 3, Weight: 10}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCheckExactRejectsDoctoredAnswers(t *testing.T) {
	g := diamond(t)
	want := graph.MDJ(g, 0, 3)
	good := answer{s: 0, t: 3, found: true, dist: 4, path: []int64{0, 1, 3}}
	if err := checkExact(g, good, want); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, c := range map[string]struct {
		a   answer
		msg string
	}{
		"distance":    {answer{s: 0, t: 3, found: true, dist: 5, path: []int64{0, 1, 3}}, "MDJ says 4"},
		"found":       {answer{s: 0, t: 3}, "found=false"},
		"longer path": {answer{s: 0, t: 3, found: true, dist: 4, path: []int64{0, 2, 3}}, "path length 6"},
		"no edge":     {answer{s: 0, t: 3, found: true, dist: 4, path: []int64{0, 1, 2, 3}}, "missing edge"},
		"wrong ends":  {answer{s: 0, t: 3, found: true, dist: 4, path: []int64{1, 3}}, "source to target"},
	} {
		err := checkExact(g, c.a, want)
		if err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, c.msg)
		}
	}
}

func TestCheckBracketRejectsDoctoredAnswers(t *testing.T) {
	lo := diamond(t)
	edges := []listedEdge{{from: 1, to: 3, weight: 2}}
	hi, err := withWeights(lo, edges, func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	wantLo, wantHi := graph.MDJ(lo, 0, 3), graph.MDJ(hi, 0, 3)
	if wantLo.Distance != 4 || wantHi.Distance != 6 {
		t.Fatalf("bracket = [%d, %d], want [4, 6]", wantLo.Distance, wantHi.Distance)
	}
	// Answers any graph between lo and hi can give pass.
	for _, a := range []answer{
		{s: 0, t: 3, found: true, dist: 4, path: []int64{0, 1, 3}},
		{s: 0, t: 3, found: true, dist: 6, path: []int64{0, 2, 3}},
	} {
		if err := checkBracket(lo, hi, a, wantLo, wantHi); err != nil {
			t.Errorf("answer %+v rejected: %v", a, err)
		}
	}
	for name, c := range map[string]struct {
		a   answer
		msg string
	}{
		"below":          {answer{s: 0, t: 3, found: true, dist: 3, path: []int64{0, 1, 3}}, "outside MDJ bracket"},
		"above":          {answer{s: 0, t: 3, found: true, dist: 7, path: []int64{0, 2, 3}}, "outside MDJ bracket"},
		"path too short": {answer{s: 0, t: 3, found: true, dist: 5, path: []int64{0, 2, 3}}, "outside its path's bracket"},
		"no edge":        {answer{s: 0, t: 3, found: true, dist: 4, path: []int64{0, 1, 2, 3}}, "missing edge"},
		"not found":      {answer{s: 0, t: 3}, "found=false"},
	} {
		err := checkBracket(lo, hi, c.a, wantLo, wantHi)
		if err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, c.msg)
		}
	}
}

func TestPairSeqDealsQuantilesEvenly(t *testing.T) {
	g := graph.Power(400, 4, 1)
	pool := drawPairs(g, rand.New(rand.NewSource(1)), 300, nil)
	ps := newPairSeq(g, pool)
	for i := 1; i < len(ps.sorted); i++ {
		a, b := ps.sorted[i-1], ps.sorted[i]
		if difficulty(g, a[0], a[1]) > difficulty(g, b[0], b[1]) {
			t.Fatalf("pool not sorted by difficulty at %d", i)
		}
	}
	// Every prefix deals near-equal shares of each difficulty quartile.
	rank := map[[2]int64]int{}
	for i, p := range ps.sorted {
		rank[p] = i
	}
	var quartiles [4]int
	dealt := map[[2]int64]bool{}
	for i := 1; i <= len(pool); i++ {
		p := ps.next()
		dealt[p] = true
		quartiles[4*rank[p]/len(pool)]++
		for q, n := range quartiles {
			if i >= 8 && (n < i/4-2 || n > i/4+3) {
				t.Fatalf("after %d pairs quartile %d was dealt %d", i, q, n)
			}
		}
	}
	if len(dealt) != len(pool) {
		t.Errorf("dealing the pool once gave %d distinct pairs, want %d", len(dealt), len(pool))
	}
}

func TestClosedLoopSharesOneSequence(t *testing.T) {
	g := graph.Power(200, 4, 1)
	ps := newPairSeq(g, drawPairs(g, rand.New(rand.NewSource(2)), 64, nil))
	tr := newTracer()
	var mu sync.Mutex
	ops := map[int64]bool{}
	const d = 20 * time.Millisecond
	wall := closedLoop(4, d, func(_ int, i int64) {
		ps.next()
		t0 := time.Now()
		tr.add(i+1, 0, "op", "core", t0, time.Now(), false)
		mu.Lock()
		defer mu.Unlock()
		if ops[i] {
			t.Errorf("operation index %d issued twice", i)
		}
		ops[i] = true
	})
	if wall < d {
		t.Errorf("closedLoop returned after %v, before its %v deadline", wall, d)
	}
	for i := range int64(len(ops)) {
		if !ops[i] {
			t.Fatalf("operation indexes skip %d", i)
		}
	}
	if n := len(tr.snapshot()); n != len(ops) {
		t.Errorf("tracer kept %d spans for %d operations", n, len(ops))
	}
}
