package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval around a call the benchmark makes into a
// layer, or one stage the layer reported back (a derived span, placed from
// the stage durations the program returns). Spans of one operation share
// Op; Parent is the ID of the span that caused this one (0 for a root).
// Start and End are offsets from the start of the run.
type Span struct {
	Op      int64         `json:"op"`
	ID      int64         `json:"id"`
	Parent  int64         `json:"parent"`
	Name    string        `json:"name"`
	Layer   string        `json:"layer"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Derived bool          `json:"derived,omitempty"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// tracer keeps every span of a run in memory; write dumps them at the end.
// A nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
	ids   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID (0 on a nil tracer).
func (tr *tracer) add(op, parent int64, name, layer string, start, end time.Time, derived bool) int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ids++
	tr.spans = append(tr.spans, Span{Op: op, ID: tr.ids, Parent: parent, Name: name, Layer: layer,
		Start: start.Sub(tr.t0), End: end.Sub(tr.t0), Derived: derived})
	return tr.ids
}

// snapshot copies the recorded spans.
func (tr *tracer) snapshot() []Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]Span(nil), tr.spans...)
}

// write dumps the spans as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children: overlapping children count once,
// and a child reaching outside its parent counts only inside it.
func selfTimes(spans []Span) map[int64]time.Duration {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// layerSelf sums self time per layer over the spans of the given ops and
// divides by the op count: the mean self time one operation spends in
// each layer.
func layerSelf(spans []Span, ops map[int64]bool) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	if len(ops) == 0 {
		return out
	}
	for _, s := range spans {
		if ops[s.Op] {
			out[s.Layer] += self[s.ID]
		}
	}
	for l, d := range out {
		out[l] = d / time.Duration(len(ops))
	}
	return out
}

// engineStages records the stages core.Engine.Query reports as derived
// spans under the call's span: admission-gate wait, planning, then the
// search (QueryStats.Total), whose SQL statements are the rdb layer's.
func engineStages(tr *tracer, op, parent int64, start time.Time, gate, plan, search, sql time.Duration) {
	tr.add(op, parent, "core.gate_wait", "core", start, start.Add(gate), true)
	tr.add(op, parent, "core.plan", "core", start.Add(gate), start.Add(gate+plan), true)
	at := start.Add(gate + plan)
	id := tr.add(op, parent, "core.search", "core", at, at.Add(search), true)
	tr.add(op, id, "rdb.sql", "rdb", at, at.Add(sql), true)
}
