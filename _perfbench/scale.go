package main

import (
	"runtime"
	"time"
)

// round-scale: FLCC rounds at a fleet size where scheduling and
// simulation, not training, dominate. Closed loop on one goroutine: each
// round plans (PlanRoundInto) and then simulates its cohort
// (SimulateRoundGains) before the next one starts. Rounds run in epochs of
// scaleEpoch consecutive rounds from the scheduler's initial state, so every
// run measures the same rounds: round cost depends on which users the
// decay has rotated into the cohort.

// scalePass is every round of one timed pass.
type scalePass struct {
	wall              time.Duration
	plan, gather, sim []time.Duration
	round             []time.Duration
}

func runScale(cfg config) (*outcome, error) {
	o := newOutcome(0.9)
	q, epoch := 100000, 40
	if cfg.small {
		q, epoch = 2000, 4
	}

	// Set-up: fleet generation, scheduler initialization, AoS view, repeated
	// from a collected heap so the median is steady.
	var s *scaleRound
	var setups []scaleSetup
	for i := 0; i < 9; i++ {
		s = nil
		runtime.GC()
		sr, st, err := newScaleRound(q, cfg.seed)
		if err != nil {
			return nil, err
		}
		s = sr
		setups = append(setups, st)
		o.setup = append(o.setup, (st.fleetBuild + st.schedInit + st.aosView).Seconds())
	}
	// One untimed round sizes the reusable buffers.
	s.plan()
	s.gather()
	s.simulate()

	want := cohortSize(q)
	var digests []uint64 // the first epoch's, which every later one repeats
	runEpoch := func(p *scalePass) bool {
		// Rewinding allocates a fresh scheduler state; collecting the old
		// one before each epoch keeps the heap, and so peak RSS, from
		// drifting with GC timing. Neither counts in the pass's wall time.
		if !o.op(s.rewind()) {
			return false
		}
		runtime.GC()
		start := time.Now()
		defer func() { p.wall += time.Since(start) }()
		for r := 0; r < epoch; r++ {
			t0 := time.Now()
			n := s.plan()
			t1 := time.Now()
			s.gather()
			t2 := time.Now()
			s.simulate()
			t3 := time.Now()
			p.plan = append(p.plan, t1.Sub(t0))
			p.gather = append(p.gather, t2.Sub(t1))
			p.sim = append(p.sim, t3.Sub(t2))
			p.round = append(p.round, t3.Sub(t0))
			o.check(n == want, "round %d selected %d users, want ⌈Q·C⌉ = %d", r, n, want)
			if d := s.digest(); len(digests) < epoch {
				digests = append(digests, d)
			} else {
				o.check(d == digests[r], "round %d selection/frequency digest does not repeat", r)
			}
		}
		return true
	}
	pass := func(seconds float64) scalePass {
		var p scalePass
		window(seconds, 2, func() bool { return runEpoch(&p) })
		return p
	}

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	untraced := pass(seconds)
	o.peakRSS = peakRSSMB()
	o.throughput = float64(len(untraced.round)) / untraced.wall.Seconds()
	o.ops = msAll(untraced.round)
	o.named["scale_rounds_per_s"] = o.throughput
	o.named["scale_round_p50_ms"] = quantile(o.ops, 0.5)
	o.named["scale_round_p90_ms"] = quantile(o.ops, 0.9)

	// Correctness outside the timed window: on the last round, Algorithm 3
	// does not lengthen the round (within the 1 ns rounding allowance the
	// module's own invariant checks use).
	dvfs := s.simulate()
	maxFreq := s.maxFreqMakespan()
	o.check(dvfs <= maxFreq+1e-9, "Algorithm 3 makespan %.17g s exceeds the max-frequency makespan %.17g s", dvfs, maxFreq)

	if cfg.trace {
		tr := newTracer(cfg.seed)
		s.trace(tr)
		traced := pass(seconds)
		scaleLayers(o, s, setups, untraced, traced, tr.spans())
	}
	return o, nil
}

// scaleLayers fills the per-layer metrics and the time table from the
// traced pass (one goroutine, so its rows sum to the pass's wall time).
func scaleLayers(o *outcome, s *scaleRound, setups []scaleSetup, untraced, traced scalePass, spans []spanRec) {
	st := newSpanTimes(spans)
	n := float64(len(traced.round))
	l := o.layers
	l["core.plan_ms"] = median(msAll(traced.plan))
	l["core.select_ms"] = ms(st.total["sched.select"]) / n
	l["core.dvfs_ms"] = ms(st.total["sched.dvfs"]) / n
	l["core.heap_pushes"] = float64(s.heapPushes())
	l["sim.round_ms"] = median(msAll(traced.sim))
	l["wireless.tdma_ms"] = median(msAll(s.tdma(5)))
	var fleet, init, aos []float64
	for _, st := range setups {
		fleet = append(fleet, st.fleetBuild.Seconds())
		init = append(init, st.schedInit.Seconds())
		aos = append(aos, st.aosView.Seconds())
	}
	l["device.fleet_build_s"] = median(fleet)
	l["core.scheduler_init_s"] = median(init)
	l["device.aos_view_s"] = median(aos)
	l["trace_overhead_share"] = overheadShare(median(msAll(traced.round)), median(msAll(untraced.round)))

	t := &o.table
	t.wall = traced.wall.Seconds()
	plan := total(traced.plan)
	sel, dvfs := secs(st.total["sched.select"]), secs(st.total["sched.dvfs"])
	t.add("core.select", sel)
	t.add("core.dvfs", dvfs)
	t.add("core.plan (rest)", plan-sel-dvfs)
	t.add("cohort gather", total(traced.gather))
	t.add("sim.round", total(traced.sim))
	l["unattributed_share"] = t.unattributedShare()
}
