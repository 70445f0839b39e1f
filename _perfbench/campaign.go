package main

import (
	"fmt"
	"runtime"
	"time"
)

// campaign-tiny: the paper reproduction as users run it. Closed loop: one
// campaign after another on a one-worker grid.Runner, each campaign
// starting only when the previous one has rendered.
//
// One worker, not one per CPU: with a worker on each of 2 vCPUs, the
// cells left no CPU for the Go runtime's own work and campaign wall swung
// from 4.0 to 6.6 s within a single run of one seed; one worker, measured
// in alternation with two, held each run's campaigns within ±5%. The grid's
// worker-count independence is still checked against a 2-worker run.
const (
	campaignWorkers  = 1
	referenceWorkers = 2
)

// campaignPass is every campaign of one timed pass.
type campaignPass struct {
	runs  []campaignRun
	cells []float64 // per-cell wall, seconds
}

func (p campaignPass) walls() []float64 {
	out := make([]float64, len(p.runs))
	for i, r := range p.runs {
		out[i] = r.wall.Seconds()
	}
	return out
}

func runCampaign(cfg config) (*outcome, error) {
	o := newOutcome(0.9)
	c, err := newCampaign(cfg.seed, cfg.small)
	if err != nil {
		return nil, err
	}

	// Set-up: both settings' environments and the plan expansion, repeated
	// from a collected heap so the median is steady.
	var envBuild []float64
	for i := 0; i < 15; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := c.buildEnvs(); err != nil {
			return nil, err
		}
		envBuild = append(envBuild, time.Since(t0).Seconds())
		if err := c.replan(); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	untraced := campaignLoop(o, c, seconds, nil)
	o.peakRSS = peakRSSMB()
	walls := untraced.walls()
	o.throughput = 1 / median(walls)
	for _, s := range untraced.cells {
		o.ops = append(o.ops, s*1e3)
	}
	o.named["campaign_s"] = median(walls)
	o.named["cell_p50_s"] = quantile(untraced.cells, 0.5)
	o.named["cell_p90_s"] = quantile(untraced.cells, 0.9)

	// Correctness: every campaign renders the same bytes as a run on
	// referenceWorkers workers, and HELCFL beats separated learning in both
	// settings.
	ref, err := c.run(referenceWorkers, nil, nil)
	if !o.op(err) {
		return o, nil
	}
	for i, r := range untraced.runs {
		o.check(r.digest == ref.digest, "campaign %d output digest %.12s differs from the %d-worker run's %.12s", i, r.digest, referenceWorkers, ref.digest)
	}
	for s, b := range ref.best {
		o.check(b[0] > b[1], "%s: HELCFL best accuracy %.4f does not exceed SL's %.4f", s, b[0], b[1])
	}

	if cfg.trace {
		tr := newTracer(cfg.seed)
		traced := campaignLoop(o, c, seconds, tr)
		for i, r := range traced.runs {
			o.check(r.digest == ref.digest, "traced campaign %d output digest differs from the %d-worker run's", i, referenceWorkers)
		}
		if err := campaignLayers(o, c, untraced, traced, tr.spans()); err != nil {
			return nil, err
		}
		o.layers["experiments.env_build_s"] = median(envBuild) // both settings
	}
	return o, nil
}

// campaignLoop runs whole campaigns until seconds have passed (at least
// two, so the output digest can be compared across repetitions).
func campaignLoop(o *outcome, c *campaign, seconds float64, tr *tracer) campaignPass {
	var pass campaignPass
	started := make([]time.Time, c.cells())
	onCell := func(ev cellEvent) {
		if !ev.done {
			started[ev.index] = ev.at
			return
		}
		o.check(!ev.failed, "cell %d failed", ev.index)
		pass.cells = append(pass.cells, ev.at.Sub(started[ev.index]).Seconds())
	}
	window(seconds, 2, func() bool {
		r, err := c.run(campaignWorkers, tr, onCell)
		if !o.op(err) {
			return false
		}
		pass.runs = append(pass.runs, r)
		return true
	})
	return pass
}

// campaignLayers fills the per-layer metrics and the time table from the
// traced pass. Cells run on campaignWorkers workers, so the table counts
// worker-seconds and divides by the worker count: its rows sum to the
// traced campaigns' wall time.
func campaignLayers(o *outcome, c *campaign, untraced, traced campaignPass, spans []spanRec) error {
	n := float64(len(traced.runs))
	st := newSpanTimes(spans)
	w := float64(campaignWorkers)
	var wall, runner, failed float64
	for _, r := range traced.runs {
		wall += r.wall.Seconds()
		runner += r.runnerWall.Seconds()
		failed += float64(r.cellsFailed)
	}
	busy := secs(st.total["grid.cell"])
	l := o.layers
	l["grid.cell_busy_s"] = busy / n
	l["grid.worker_idle_share"] = 1 - busy/(w*runner)
	l["grid.cells_failed"] = failed
	plan := st.total["fl.round.plan"]
	l["fl.plan_s"] = secs(plan) / n
	l["fl.train_s"] = secs(st.self["fl.round.train"]) / n
	l["fl.aggregate_s"] = secs(st.self["fl.round.aggregate"]) / n
	l["fl.eval_s"] = secs(st.self["fl.round.eval"]) / n
	if cellRun := st.total["cell.run"]; cellRun > 0 {
		l["fl.unattributed_share"] = 1 - secs(st.total["fl.run"])/secs(cellRun)
	}
	l["fl.rounds"] = float64(st.count["fl.round"]) / n
	l["trace_overhead_share"] = overheadShare(median(traced.walls()), median(untraced.walls()))

	pr, err := c.probe(20)
	if err != nil {
		return err
	}
	l["nn.local_update_ms"] = median(msAll(pr.localUpdate))
	l["fl.evaluate_ms"] = median(msAll(pr.evaluate))
	l["fl.fedavg_ms"] = median(msAll(pr.fedavg))
	l["fl.allocs_per_round"] = pr.allocsPerRound

	t := &o.table
	t.wall = wall
	// Time inside grid.cell spans not covered by cell.envbuild / cell.run
	// (cells that open no phase span) is left to the unattributed row.
	t.note = fmt.Sprintf("worker-seconds / %d workers", campaignWorkers)
	add := func(name string, d time.Duration) { t.add(name, secs(d)/w) }
	add("experiments.envbuild", st.total["cell.envbuild"])
	add("experiments.cell.run (SL, self)", st.self["cell.run"])
	add("fl.run (self)", st.self["fl.run"])
	add("fl.round (self)", st.self["fl.round"])
	add("fl.plan (core incl.)", plan)
	add("fl.train", st.self["fl.round.train"])
	add("fl.upload", st.self["fl.round.upload"])
	add("fl.aggregate", st.self["fl.round.aggregate"])
	add("fl.eval", st.self["fl.round.eval"])
	t.add("grid.worker_idle", (w*runner-busy)/w)
	t.add("render", wall-runner)
	l["unattributed_share"] = t.unattributedShare()
	return nil
}
