package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	failures          []string

	// setup holds the seconds of each set-up repetition; setup_s is their
	// median.
	setup []float64
	// throughput is units of work per second (see endToEnd).
	throughput float64
	// peakRSS is the process's peak RSS in MB, read as the untraced pass
	// ends: reference and traced runs after it do not count.
	peakRSS float64
	// ops are per-operation latencies in ms; tailQ is the quantile
	// op_tail_ms reports.
	ops   []float64
	tailQ float64

	// named are the workload-specific end-to-end metrics, by their own
	// names (units in namedUnits).
	named map[string]float64
	// layers are the per-layer metrics of a traced run.
	layers map[string]float64
	// table is the traced run's per-layer time table.
	table layerTable
}

func newOutcome(tailQ float64) *outcome {
	return &outcome{tailQ: tailQ, named: map[string]float64{}, layers: map[string]float64{}}
}

// check counts one correctness check; a false ok is a failure.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.failures) < 20 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// op counts one attempted operation; a non-nil err is a failure.
func (o *outcome) op(err error) bool {
	if err != nil {
		return o.check(false, "%v", err)
	}
	return o.check(true, "")
}

func (o *outcome) errorRate() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

// namedMetrics are the workload-specific end-to-end metrics with units.
func (o *outcome) namedMetrics() map[string]metricOut {
	out := map[string]metricOut{"error_rate": {o.errorRate(), namedUnits["error_rate"]}}
	for k, v := range o.named {
		out[k] = metricOut{finite(v), namedUnits[k]}
	}
	return out
}

func (o *outcome) result() result {
	return result{Correct: o.failed == 0 && o.attempted > 0, Attempted: max(o.attempted, 1), Failed: o.failed}
}

func (o *outcome) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":      median(o.setup),
		"peak_rss_mb":  o.peakRSS,
		"success_rate": 1 - o.errorRate(),
		"throughput":   o.throughput,
		"op_p50_ms":    quantile(o.ops, 0.5),
		"op_tail_ms":   quantile(o.ops, o.tailQ),
	}
}

// quantile interpolates linearly between the order statistics of xs
// (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// total sums durations in seconds.
func total(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// overheadShare is the relative slowdown of the traced pass.
func overheadShare(traced, untraced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return (traced - untraced) / untraced
}

// window runs step until seconds have elapsed (and at least min times),
// returning the elapsed wall time.
func window(seconds float64, min int, step func() bool) time.Duration {
	start := time.Now()
	for n := 0; n < min || time.Since(start).Seconds() < seconds; n++ {
		if !step() {
			break
		}
	}
	return time.Since(start)
}

// layerTable attributes a workload's wall time to named layers; whatever
// the rows do not cover is reported as the unattributed remainder, so the
// rows and the remainder always sum to the wall time.
type layerTable struct {
	wall float64 // seconds
	rows []layerRow
	note string
}

type layerRow struct {
	name    string
	seconds float64
}

func (t *layerTable) add(name string, seconds float64) {
	t.rows = append(t.rows, layerRow{name, seconds})
}

func (t layerTable) unattributed() float64 {
	u := t.wall
	for _, r := range t.rows {
		u -= r.seconds
	}
	return u
}

func (t layerTable) unattributedShare() float64 {
	if t.wall <= 0 {
		return 0
	}
	return t.unattributed() / t.wall
}

func (t layerTable) render(workload string, overhead float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "layers %s: wall %.4f s", workload, t.wall)
	if t.note != "" {
		fmt.Fprintf(&b, " (%s)", t.note)
	}
	b.WriteString("\n")
	rows := append(t.rows, layerRow{"unattributed", t.unattributed()})
	for _, r := range rows {
		share := 0.0
		if t.wall > 0 {
			share = r.seconds / t.wall
		}
		fmt.Fprintf(&b, "  %-28s %10.4f s %7.2f%%\n", r.name, r.seconds, 100*share)
	}
	fmt.Fprintf(&b, "  %-28s %10.4f s %7.2f%%\n", "total", t.wall, 100.0)
	fmt.Fprintf(&b, "  trace_overhead_share %.4f\n", overhead)
	return b.String()
}

// spanRec is a completed span as the harness sees it.
type spanRec struct {
	id, parent uint64
	name       string
	dur        time.Duration
}

// spanTimes sums span durations by name: total is inclusive time, self
// subtracts the time of direct children, count is how many spans ran.
type spanTimes struct {
	total, self map[string]time.Duration
	count       map[string]int
}

func newSpanTimes(spans []spanRec) spanTimes {
	st := spanTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
	child := map[uint64]time.Duration{}
	for _, s := range spans {
		child[s.parent] += s.dur
	}
	for _, s := range spans {
		st.total[s.name] += s.dur
		st.self[s.name] += s.dur - child[s.id]
		st.count[s.name]++
	}
	return st
}

func secs(d time.Duration) float64 { return d.Seconds() }
