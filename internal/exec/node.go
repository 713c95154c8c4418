package exec

import (
	"repro/internal/record"
	"repro/internal/table"
)

// Node is a Volcano-style plan operator. Open may be called again after
// Close (nested-loop joins re-open their inner side per outer row).
//
// Compiled plans double as prepared-statement templates: Clone returns a
// fresh operator tree sharing the immutable compiled parts (table handles,
// scalar functions, join keys) but none of the iteration state, so one
// cached plan can be executed by any number of concurrent statements.
type Node interface {
	Open(ctx *Ctx) error
	Next(ctx *Ctx) (record.Row, error) // nil, nil == end of stream
	Close()
	Clone() Node
}

// runPlan drains a plan into a materialized slice.
func runPlan(n Node, ctx *Ctx) ([]record.Row, error) {
	if err := n.Open(ctx); err != nil {
		return nil, err
	}
	defer n.Close()
	var out []record.Row
	for {
		r, err := n.Next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, r)
	}
}

// planHasRow reports whether a plan yields at least one row (EXISTS).
func planHasRow(n Node, ctx *Ctx) (bool, error) {
	if err := n.Open(ctx); err != nil {
		return false, err
	}
	defer n.Close()
	r, err := n.Next(ctx)
	if err != nil {
		return false, err
	}
	return r != nil, nil
}

// --- SeqScan -----------------------------------------------------------------

// SeqScan reads every row of a table, applying an optional residual filter.
type SeqScan struct {
	Table    *table.Table
	Residual scalarFn // may be nil
	it       *table.Iterator
}

// Open implements Node.
func (s *SeqScan) Open(*Ctx) error {
	s.it = s.Table.Scan()
	return nil
}

// Next implements Node.
func (s *SeqScan) Next(ctx *Ctx) (record.Row, error) {
	for s.it.Next() {
		row := s.it.Row()
		if s.Residual != nil {
			v, err := s.Residual(ctx, row)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		return row, nil
	}
	return nil, s.it.Err()
}

// Close implements Node.
func (s *SeqScan) Close() { s.it = nil }

// Clone implements Node.
func (s *SeqScan) Clone() Node { return &SeqScan{Table: s.Table, Residual: s.Residual} }

// --- IndexEqScan ----------------------------------------------------------------

// IndexEqScan probes an index (or the clustered tree) with equality values
// computed at Open time; probe expressions may reference parameters, outer
// rows and uncorrelated scalar subqueries, which is how index-nested-loop
// joins, correlated EXISTS probes and the frontier's
// `d2s = (SELECT MIN(d2s) ...)` selection are realized. Rows arrive in index
// key order: ascending in the first index column past the probed prefix.
type IndexEqScan struct {
	Table    *table.Table
	Index    *table.Index // nil => clustered index
	KeyFns   []scalarFn
	Residual scalarFn // may be nil

	tit *table.Iterator
	iit *table.IndexIterator
}

// probeKeys evaluates equality probe keys. ok is false when a key is NULL:
// `col = NULL` is never true, but NULL has an index encoding of its own,
// so probing with it would match the NULL-keyed rows.
func probeKeys(ctx *Ctx, fns []scalarFn) (vals []record.Value, ok bool, err error) {
	vals = make([]record.Value, len(fns))
	for i, f := range fns {
		v, err := f(ctx, nil)
		if err != nil {
			return nil, false, err
		}
		if v.Null {
			return nil, false, nil
		}
		vals[i] = v
	}
	return vals, true, nil
}

// Open implements Node.
func (s *IndexEqScan) Open(ctx *Ctx) error {
	s.tit, s.iit = nil, nil
	vals, ok, err := probeKeys(ctx, s.KeyFns)
	if err != nil || !ok {
		return err
	}
	if s.Index == nil {
		s.tit = s.Table.ScanClusteredPrefix(vals)
	} else {
		s.iit = s.Table.LookupEq(s.Index, vals)
	}
	return nil
}

// Next implements Node.
func (s *IndexEqScan) Next(ctx *Ctx) (record.Row, error) {
	if s.tit == nil && s.iit == nil {
		return nil, nil // a NULL probe key matches nothing
	}
	for {
		var row record.Row
		if s.tit != nil {
			if !s.tit.Next() {
				return nil, s.tit.Err()
			}
			row = s.tit.Row()
		} else {
			if !s.iit.Next() {
				return nil, s.iit.Err()
			}
			row = s.iit.Row()
		}
		if s.Residual != nil {
			v, err := s.Residual(ctx, row)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		return row, nil
	}
}

// Close implements Node.
func (s *IndexEqScan) Close() { s.tit, s.iit = nil, nil }

// Clone implements Node.
func (s *IndexEqScan) Clone() Node {
	return &IndexEqScan{Table: s.Table, Index: s.Index, KeyFns: s.KeyFns, Residual: s.Residual}
}

// --- Filter / Project -----------------------------------------------------------

// Filter drops rows failing the predicate.
type Filter struct {
	Input Node
	Pred  scalarFn
}

// Open implements Node.
func (f *Filter) Open(ctx *Ctx) error { return f.Input.Open(ctx) }

// Next implements Node.
func (f *Filter) Next(ctx *Ctx) (record.Row, error) {
	for {
		r, err := f.Input.Next(ctx)
		if err != nil || r == nil {
			return r, err
		}
		v, err := f.Pred(ctx, r)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			return r, nil
		}
	}
}

// Close implements Node.
func (f *Filter) Close() { f.Input.Close() }

// Clone implements Node.
func (f *Filter) Clone() Node { return &Filter{Input: f.Input.Clone(), Pred: f.Pred} }

// Project computes output columns from input rows.
type Project struct {
	Input Node
	Fns   []scalarFn
}

// Open implements Node.
func (p *Project) Open(ctx *Ctx) error { return p.Input.Open(ctx) }

// Next implements Node.
func (p *Project) Next(ctx *Ctx) (record.Row, error) {
	r, err := p.Input.Next(ctx)
	if err != nil || r == nil {
		return nil, err
	}
	out := make(record.Row, len(p.Fns))
	for i, f := range p.Fns {
		v, err := f(ctx, r)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Close implements Node.
func (p *Project) Close() { p.Input.Close() }

// Clone implements Node.
func (p *Project) Clone() Node { return &Project{Input: p.Input.Clone(), Fns: p.Fns} }

// --- ValuesNode -------------------------------------------------------------------

// ValuesNode emits a fixed set of rows (SELECT without FROM emits one empty
// row so constant projections work).
type ValuesNode struct {
	Rows []record.Row
	pos  int
}

// Open implements Node.
func (v *ValuesNode) Open(*Ctx) error {
	v.pos = 0
	return nil
}

// Next implements Node.
func (v *ValuesNode) Next(*Ctx) (record.Row, error) {
	if v.pos >= len(v.Rows) {
		return nil, nil
	}
	r := v.Rows[v.pos]
	v.pos++
	return r, nil
}

// Close implements Node.
func (v *ValuesNode) Close() {}

// Clone implements Node.
func (v *ValuesNode) Clone() Node { return &ValuesNode{Rows: v.Rows} }
