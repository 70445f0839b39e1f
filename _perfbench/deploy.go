package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// deploy-durable: the networked FLCC with durable state. Closed loop with
// deployDrivers goroutines, each owning one keep-alive connection and half
// the fleet. Each campaign registers every user once, then runs its rounds:
// every user polls once, the selected users fetch the model and train, and
// then they upload one at a time. A round's uploads all return before the
// next round's polls.

const deployDrivers = 2

// driverLog is what one driver goroutine measured in one phase.
type driverLog struct {
	busy                                      time.Duration
	register, poll, fetch, decode, train, enc []time.Duration
	upload                                    []time.Duration
	lastUploadEnd                             time.Time
	lastUpload                                time.Duration
	selected                                  []int
	errs                                      []error
}

func (l *driverLog) timed(dst *[]time.Duration, f func() error) bool {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	l.busy += d
	*dst = append(*dst, d)
	if err != nil {
		l.errs = append(l.errs, err)
	}
	return err == nil
}

// deployPass is every campaign of one timed pass.
type deployPass struct {
	rounds    int
	roundWall time.Duration
	setup     []float64
	idle      time.Duration // driver time spent waiting at phase barriers
	driverLog               // merged over drivers and phases
	closing   []time.Duration
	counters  map[string]float64 // the last campaign's server counters
}

func (p *deployPass) merge(o *outcome, logs []driverLog) {
	for i := range logs {
		l := &logs[i]
		p.register = append(p.register, l.register...)
		p.poll = append(p.poll, l.poll...)
		p.fetch = append(p.fetch, l.fetch...)
		p.decode = append(p.decode, l.decode...)
		p.train = append(p.train, l.train...)
		p.enc = append(p.enc, l.enc...)
		p.upload = append(p.upload, l.upload...)
		for _, err := range l.errs {
			o.op(err)
		}
		o.attempted += len(l.register) + len(l.poll) + len(l.fetch) + len(l.decode) + len(l.upload) - len(l.errs)
	}
}

// phase runs f on every driver concurrently and returns their logs; the
// barrier wait of each driver is added to p.idle.
func (p *deployPass) phase(f func(i int, l *driverLog)) []driverLog {
	return p.run(true, f)
}

// turns runs f on one driver after another, as the TDMA upload schedule
// (Eqs. 6–8) gives the uplink to one user at a time.
func (p *deployPass) turns(f func(i int, l *driverLog)) []driverLog {
	return p.run(false, f)
}

func (p *deployPass) run(concurrent bool, f func(i int, l *driverLog)) []driverLog {
	logs := make([]driverLog, deployDrivers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range logs {
		if !concurrent {
			f(i, &logs[i])
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i, &logs[i])
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, l := range logs {
		p.idle += wall - l.busy
	}
	return logs
}

func runDeploy(cfg config) (*outcome, error) {
	// One upload in ⌈Q·C⌉ = 10 closes its round (FedAvg, next plan,
	// snapshot), so the p99 upload is the 90th percentile of the round
	// closes alone, which rides the disk's fsync jitter. op_tail_ms is the
	// p95: the middle of the round-close uploads.
	o := newOutcome(0.95)
	e, err := newDeployEnv(cfg.seed, cfg.small)
	if err != nil {
		return nil, err
	}
	ref, err := e.reference()
	if err != nil {
		return nil, err
	}
	if cfg.corrupt != nil {
		cfg.corrupt(ref)
	}

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	campaigns := 0
	pass := func(tr *tracer) *deployPass {
		p := &deployPass{}
		window(seconds, 1, func() bool {
			dir := filepath.Join(cfg.scratch, fmt.Sprintf("deploy-%d", campaigns))
			campaigns++
			ok := deployCampaign(o, e, dir, tr, p, ref)
			os.RemoveAll(dir)
			return ok
		})
		return p
	}
	untraced := pass(nil)
	o.peakRSS = peakRSSMB()
	o.setup = untraced.setup
	o.throughput = float64(untraced.rounds) / untraced.roundWall.Seconds()
	o.ops = msAll(untraced.upload)
	o.named["deploy_rounds_per_s"] = o.throughput
	o.named["upload_p50_ms"] = quantile(o.ops, 0.5)
	o.named["upload_p95_ms"] = quantile(o.ops, 0.95)
	o.named["upload_p99_ms"] = quantile(o.ops, 0.99)

	if cfg.trace {
		tr := newTracer(cfg.seed)
		traced := pass(tr)
		dir := filepath.Join(cfg.scratch, "probe")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		pr, err := e.probe(dir, 50)
		if err != nil {
			return nil, err
		}
		deployLayers(o, untraced, traced, pr)
	}
	return o, nil
}

// deployCampaign runs one full campaign against a fresh server and checks
// it: every request succeeds, every round selects ⌈Q·C⌉ users and closes,
// and the final global model is bit-identical to the in-process engine's.
func deployCampaign(o *outcome, e *deployEnv, dir string, tr *tracer, p *deployPass, ref []float64) bool {
	runtime.GC() // each campaign's set-up starts from a collected heap
	t0 := time.Now()
	f, err := e.start(dir, tr)
	if !o.op(err) {
		return false
	}
	defer f.close()
	drivers := make([]*driver, deployDrivers)
	mine := make([][]int, deployDrivers)
	for q := 0; q < e.users(); q++ {
		mine[q%deployDrivers] = append(mine[q%deployDrivers], q)
	}
	for i := range drivers {
		drivers[i] = e.newDriver(mine[i])
		defer drivers[i].close()
	}
	idle := p.idle // registration is set-up, not round time
	p.merge(o, p.phase(func(i int, l *driverLog) {
		for _, q := range mine[i] {
			l.timed(&l.register, func() error { return drivers[i].register(f.url, q) })
		}
	}))
	p.setup = append(p.setup, time.Since(t0).Seconds())
	p.idle = idle

	want := int(math.Ceil(float64(e.users()) * e.env.Preset.Fraction))
	start := time.Now()
	for r := 0; r < e.rounds; r++ {
		polls := p.phase(func(i int, l *driverLog) {
			for _, q := range mine[i] {
				var rep pollReply
				l.timed(&l.poll, func() (err error) {
					rep, err = drivers[i].poll(f.url, q)
					if err == nil && (!rep.training || rep.round != r) {
						err = fmt.Errorf("user %d polled round %d (training %v), want round %d", q, rep.round, rep.training, r)
					}
					return err
				})
				if rep.selected {
					l.selected = append(l.selected, q)
				}
			}
		})
		p.merge(o, polls)
		selected := 0
		for _, l := range polls {
			selected += len(l.selected)
		}
		if !o.check(selected == want, "round %d selected %d users, want %d", r, selected, want) {
			return false
		}
		// Clients train on their own devices, not on the FLCC's CPU: every
		// selected user trains before any uploads, so no upload is timed
		// while a driver trains beside the server. The uploads then take
		// turns, one user at a time as under TDMA, so each is timed from
		// request to durable 204 without queueing behind another upload's
		// WAL fsync.
		payloads := make([][][]byte, deployDrivers)
		trains := p.phase(func(i int, l *driverLog) {
			d := drivers[i]
			for _, q := range polls[i].selected {
				var payload []byte
				var global []float64
				ok := l.timed(&l.fetch, func() (err error) { payload, err = d.fetch(f.url, r); return err }) &&
					l.timed(&l.decode, func() (err error) { global, err = d.decode(payload); return err }) &&
					l.timed(&l.train, func() error { d.train(q, global); return nil }) &&
					l.timed(&l.enc, func() error { payload = d.encode(q); return nil })
				if !ok {
					return
				}
				payloads[i] = append(payloads[i], payload)
			}
		})
		p.merge(o, trains)
		uploads := p.turns(func(i int, l *driverLog) {
			for j, payload := range payloads[i] {
				q := polls[i].selected[j]
				if !l.timed(&l.upload, func() error { return drivers[i].upload(f.url, q, r, payload) }) {
					return
				}
				l.lastUpload, l.lastUploadEnd = l.upload[len(l.upload)-1], time.Now()
			}
		})
		p.merge(o, uploads)
		// The upload that completes the cohort (FedAvg, next plan,
		// snapshot) is the one answered last.
		last := uploads[0]
		for _, l := range uploads[1:] {
			if l.lastUploadEnd.After(last.lastUploadEnd) {
				last = l
			}
		}
		p.closing = append(p.closing, last.lastUpload)
	}
	p.roundWall += time.Since(start)
	p.rounds += e.rounds

	rep, err := drivers[0].poll(f.url, 0)
	o.op(err)
	o.check(err == nil && rep.done, "server not done after %d rounds", e.rounds)
	o.check(bitsEqual(f.global(), ref), "final global model differs from the in-process engine's")
	p.counters, err = f.counters()
	return o.op(err)
}

// bitsEqual reports exact float64 equality.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// deployLayers fills the per-layer metrics and the time table from the
// traced pass. The drivers run concurrently, so the table counts
// driver-seconds and divides by the driver count: its rows sum to the
// traced rounds' wall time.
func deployLayers(o *outcome, untraced, traced *deployPass, pr deployProbes) {
	l := o.layers
	l["deploy.register_ms"] = median(msAll(traced.register))
	l["deploy.poll_p50_ms"] = median(msAll(traced.poll))
	l["deploy.model_fetch_p50_ms"] = median(msAll(traced.fetch))
	l["deploy.round_close_ms"] = median(msAll(traced.closing))
	l["client.train_p50_ms"] = median(msAll(traced.train))
	c := traced.counters
	l["deploy.wal_records"] = c["helcfl_wal_records_total"]
	l["deploy.snapshot_writes"] = c["helcfl_checkpoint_writes_total"]
	l["deploy.bytes_up"] = c["helcfl_server_bytes_up_total"]
	l["deploy.bytes_down"] = c["helcfl_server_bytes_down_total"]
	l["deploy.http_requests"] = c["helcfl_http_requests_total"]
	l["deploy.rejected_uploads"] = c["helcfl_server_rejected_uploads_total"]
	l["checkpoint.wal_append_ms"] = median(msAll(pr.walAppend))
	l["nn.param_decode_ms"] = median(msAll(pr.paramDecode))
	l["checkpoint.snapshot_ms"] = median(msAll(pr.snapshot))
	perRound := func(p *deployPass) float64 { return p.roundWall.Seconds() / float64(p.rounds) }
	l["trace_overhead_share"] = overheadShare(perRound(traced), perRound(untraced))

	t := &o.table
	t.wall = traced.roundWall.Seconds()
	t.note = "driver-seconds / 2 drivers"
	add := func(name string, ds []time.Duration) { t.add(name, total(ds)/deployDrivers) }
	add("deploy.poll", traced.poll)
	add("deploy.model_fetch", traced.fetch)
	add("nn.param_decode (client)", traced.decode)
	add("fl.local_update (client)", traced.train)
	add("nn.param_encode (client)", traced.enc)
	add("deploy.upload", traced.upload)
	t.add("driver barrier wait", traced.idle.Seconds()/deployDrivers)
	l["unattributed_share"] = t.unattributedShare()
}
