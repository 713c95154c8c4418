package core

import (
	"context"
	"sync"

	"repro/internal/rdb"
)

// queryGate is the engine's admission control: read-only searches enter the
// shared side and run concurrently (each over its own scratch-table set),
// while mutators — LoadGraph, ApplyMutations, BuildSegTable, BuildOracle —
// take the exclusive side, draining every in-flight reader first and
// blocking new ones. It replaces the old one-slot query latch, which
// serialized all searches because they shared one TVisited table.
//
// The gate is writer-preferring: once a writer is queued, new readers hold
// back until every queued writer has run, so a steady stream of queries can
// never starve a mutation. Waiters of either kind abandon the queue when
// their context dies — a request stuck behind a slow search fails at its
// deadline without ever touching the database.
//
// Waiting uses a broadcast channel replaced on every release (close wakes
// all waiters; each re-checks the admission predicate under the mutex), so
// cancellation composes with queueing through a plain select.
type queryGate struct {
	mu             sync.Mutex
	readers        int
	writer         bool
	readersWaiting int
	writersWaiting int
	turn           chan struct{}

	// Counters for /stats and the concurrency tests.
	sharedAdmits    uint64
	exclusiveAdmits uint64
	abandons        uint64
	drains          uint64 // exclusive admissions that waited for the gate
	peakReaders     int
}

// GateStats snapshots the admission gate for the serving tier.
type GateStats struct {
	// SharedAdmits / ExclusiveAdmits count successful admissions.
	SharedAdmits    uint64 `json:"shared_admits"`
	ExclusiveAdmits uint64 `json:"exclusive_admits"`
	// Abandons counts waiters that gave up on a cancelled context.
	Abandons uint64 `json:"abandons"`
	// Drains counts exclusive admissions that had to wait (for readers to
	// finish or another writer to release).
	Drains uint64 `json:"drains"`
	// Readers is the current in-flight reader count; PeakReaders its
	// high-water mark — direct evidence of parallel read admission.
	Readers        int  `json:"readers"`
	PeakReaders    int  `json:"peak_readers"`
	ReadersWaiting int  `json:"readers_waiting"`
	WritersWaiting int  `json:"writers_waiting"`
	WriterActive   bool `json:"writer_active"`
}

func newQueryGate() *queryGate {
	return &queryGate{turn: make(chan struct{})}
}

// broadcastLocked wakes every waiter to re-check admission.
func (g *queryGate) broadcastLocked() {
	close(g.turn)
	g.turn = make(chan struct{})
}

// lockShared admits a reader, waiting while a writer runs or is queued.
func (g *queryGate) lockShared(ctx context.Context) error {
	if err := rdb.ContextErr(ctx); err != nil {
		return err
	}
	g.mu.Lock()
	for g.writer || g.writersWaiting > 0 {
		g.readersWaiting++
		ch := g.turn
		g.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			g.mu.Lock()
			g.readersWaiting--
			g.abandons++
			g.mu.Unlock()
			return ctx.Err()
		}
		g.mu.Lock()
		g.readersWaiting--
	}
	g.readers++
	g.sharedAdmits++
	if g.readers > g.peakReaders {
		g.peakReaders = g.readers
	}
	g.mu.Unlock()
	return nil
}

// unlockShared releases a reader; the last one out wakes queued writers.
func (g *queryGate) unlockShared() {
	g.mu.Lock()
	g.readers--
	if g.readers == 0 {
		g.broadcastLocked()
	}
	g.mu.Unlock()
}

// lockExclusive admits a writer once every reader has drained and no other
// writer runs. On cancellation the waiter withdraws its queue slot and, if
// it was the last queued writer, wakes the readers it was holding back.
func (g *queryGate) lockExclusive(ctx context.Context) error {
	if err := rdb.ContextErr(ctx); err != nil {
		return err
	}
	g.mu.Lock()
	g.writersWaiting++
	waited := false
	for g.writer || g.readers > 0 {
		waited = true
		ch := g.turn
		g.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			g.mu.Lock()
			g.writersWaiting--
			g.abandons++
			if g.writersWaiting == 0 {
				g.broadcastLocked()
			}
			g.mu.Unlock()
			return ctx.Err()
		}
		g.mu.Lock()
	}
	g.writersWaiting--
	g.writer = true
	g.exclusiveAdmits++
	if waited {
		g.drains++
	}
	g.mu.Unlock()
	return nil
}

// unlockExclusive releases the writer and wakes everyone queued.
func (g *queryGate) unlockExclusive() {
	g.mu.Lock()
	g.writer = false
	g.broadcastLocked()
	g.mu.Unlock()
}

// stats snapshots the gate.
func (g *queryGate) stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GateStats{
		SharedAdmits:    g.sharedAdmits,
		ExclusiveAdmits: g.exclusiveAdmits,
		Abandons:        g.abandons,
		Drains:          g.drains,
		Readers:         g.readers,
		PeakReaders:     g.peakReaders,
		ReadersWaiting:  g.readersWaiting,
		WritersWaiting:  g.writersWaiting,
		WriterActive:    g.writer,
	}
}
