package main

import (
	"time"

	"helcfl/internal/obs/span"
)

// tracer wraps the module's span recorder: every completed span goes to an
// unbounded in-memory collector and is read back once the traced pass ends.
type tracer struct {
	rec *span.Recorder
	col *span.Collector
}

func newTracer(seed int64) *tracer {
	col := &span.Collector{}
	// The recorder's own ring is kept minimal; the collector never drops.
	return &tracer{rec: span.NewRecorder(uint64(seed), span.Options{Capacity: 1, Exporter: col}), col: col}
}

func (t *tracer) spans() []spanRec {
	recs := t.col.Snapshot()
	out := make([]spanRec, len(recs))
	for i, r := range recs {
		out[i] = spanRec{id: r.Span, parent: r.Parent, name: r.Name, dur: time.Duration(r.DurNs)}
	}
	return out
}
