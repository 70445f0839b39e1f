package main

import (
	"hash/fnv"
	"math"
	"time"

	"helcfl/internal/core"
	"helcfl/internal/device"
	"helcfl/internal/sim"
	"helcfl/internal/wireless"
)

// This file is the round-scale workload's only contact with the module:
// the SoA fleet, the fleet scheduler, the round simulator, and the TDMA
// uplink scheduler.

// scaleModelBits is C_model of the tiny-preset MLP, the payload the
// committed scale figures use.
const scaleModelBits = 208256

// scaleRound plans and simulates FLCC rounds over one fleet.
type scaleRound struct {
	sched *core.Scheduler
	devs  []*device.Device // AoS view of the whole fleet
	ch    wireless.Channel

	initial core.SchedulerState // Algorithm 2 state before the first round

	sel     []int
	freqs   []float64
	cohort  []*device.Device
	scratch sim.Scratch
	slots   []wireless.UploadSlot
}

// scaleSetup is the time each set-up stage took.
type scaleSetup struct {
	fleetBuild, schedInit, aosView time.Duration
}

func fleetConfig(q int) device.CatalogConfig {
	cfg := device.DefaultCatalogConfig()
	cfg.Q = q
	cfg.SamplesLow, cfg.SamplesHigh = 20, 60
	return cfg
}

// newScaleRound builds a Q-user fleet from seed, initializes the scheduler
// over it (Algorithm 2's initialization phase), and materializes the AoS
// device view the simulator consumes.
func newScaleRound(q int, seed int64) (*scaleRound, scaleSetup, error) {
	var st scaleSetup
	t0 := time.Now()
	fleet := device.NewFleet(fleetConfig(q), seed)
	t1 := time.Now()
	ch := wireless.DefaultChannel()
	sched, err := core.NewFleetScheduler(fleet, ch, scaleModelBits, core.DefaultParams())
	if err != nil {
		return nil, st, err
	}
	s := &scaleRound{sched: sched, ch: ch, initial: sched.ExportState()}
	t2 := time.Now()
	s.devs = fleet.Devices()
	t3 := time.Now()
	return s, scaleSetup{fleetBuild: t1.Sub(t0), schedInit: t2.Sub(t1), aosView: t3.Sub(t2)}, nil
}

// rewind restores the scheduler to its state before the first round, so
// the next rounds repeat the same selections.
func (s *scaleRound) rewind() error { return s.sched.ImportState(s.initial) }

// cohortSize is ⌈Q·C⌉.
func cohortSize(q int) int {
	return int(math.Ceil(float64(q) * core.DefaultParams().Fraction))
}

// trace makes the scheduler record sched.select and sched.dvfs spans for
// every plan into tr.
func (s *scaleRound) trace(tr *tracer) { s.sched.SetTrace(tr.rec, tr.rec.Root()) }

// plan runs Algorithm 2's selection and Algorithm 3's frequency plan for
// the next round, returning the cohort size.
func (s *scaleRound) plan() int {
	s.sel, s.freqs = s.sched.PlanRoundInto(s.sel, s.freqs, s.ch, scaleModelBits)
	return len(s.sel)
}

// gather collects the planned cohort's devices.
func (s *scaleRound) gather() {
	s.cohort = s.cohort[:0]
	for _, q := range s.sel {
		s.cohort = append(s.cohort, s.devs[q])
	}
}

// simulate runs the round (compute, TDMA upload, energy) at the planned
// frequencies and returns its makespan.
func (s *scaleRound) simulate() float64 {
	return s.scratch.SimulateRoundGains(s.cohort, s.freqs, s.ch, scaleModelBits, 1, nil).Makespan
}

// maxFreqMakespan simulates the current cohort at every device's maximum
// frequency (no DVFS).
func (s *scaleRound) maxFreqMakespan() float64 {
	var scratch sim.Scratch
	return scratch.SimulateRoundGains(s.cohort, sim.MaxFrequencies(s.cohort), s.ch, scaleModelBits, 1, nil).Makespan
}

// digest fingerprints the current selection and frequencies.
func (s *scaleRound) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i, q := range s.sel {
		put(uint64(q))
		put(math.Float64bits(s.freqs[i]))
	}
	return h.Sum64()
}

func (s *scaleRound) heapPushes() int { return s.sched.LastHeapPushes() }

// tdma times wireless.ScheduleTDMAInto alone on the current cohort's
// upload requests (compute-done times at the planned frequencies).
func (s *scaleRound) tdma(reps int) []time.Duration {
	reqs := make([]wireless.UploadRequest, len(s.cohort))
	for i, d := range s.cohort {
		reqs[i] = wireless.UploadRequest{
			User:        i,
			ComputeDone: d.ComputeDelay(s.freqs[i]),
			Duration:    s.ch.UploadDelay(scaleModelBits, d.TxPower, d.ChannelGain),
		}
	}
	out := make([]time.Duration, reps)
	for i := range out {
		t0 := time.Now()
		s.slots, _ = wireless.ScheduleTDMAInto(s.slots, reqs)
		out[i] = time.Since(t0)
	}
	return out
}
