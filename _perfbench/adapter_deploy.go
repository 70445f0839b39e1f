package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"helcfl/internal/checkpoint"
	"helcfl/internal/core"
	"helcfl/internal/deploy"
	"helcfl/internal/device"
	"helcfl/internal/experiments"
	"helcfl/internal/fl"
	"helcfl/internal/nn"
	"helcfl/internal/selection"
	"helcfl/internal/wireless"
)

// This file is the deploy-durable workload's only contact with the module:
// the FLCC server and its wire protocol, the fl client update, the nn wire
// codec, and the checkpoint package.

// deployEnv is the campaign every deploy run repeats: a preset's users,
// data and model, trained for a fixed number of rounds.
type deployEnv struct {
	env    *experiments.Env
	rounds int
	seed   int64 // global-model initialization
}

func newDeployEnv(seed int64, small bool) (*deployEnv, error) {
	p, rounds := experiments.Paper(), 40
	if small {
		p, rounds = experiments.Tiny(), 4
	}
	env, err := experiments.BuildEnv(p, experiments.IID, seed)
	if err != nil {
		return nil, err
	}
	return &deployEnv{env: env, rounds: rounds, seed: seed + 100}, nil
}

func (e *deployEnv) users() int { return e.env.Preset.Users }

// registration is user q's resource report.
func (e *deployEnv) registration(q int) deploy.RegisterRequest {
	d := e.env.Devices[q]
	return deploy.RegisterRequest{
		User: q, NumSamples: e.env.UserData[q].N(),
		FMin: d.FMin, FMax: d.FMax, TxPower: d.TxPower, ChannelGain: d.ChannelGain,
	}
}

// mirroredDevices are the devices the server reconstructs from the
// registrations.
func (e *deployEnv) mirroredDevices() []*device.Device {
	devs := make([]*device.Device, e.users())
	for q := range devs {
		r := e.registration(q)
		devs[q] = &device.Device{
			ID: q, FMin: r.FMin, FMax: r.FMax,
			CyclesPerSample: device.DefaultCyclesPerSample, Kappa: device.DefaultKappa,
			TxPower: r.TxPower, ChannelGain: r.ChannelGain, NumSamples: r.NumSamples,
		}
	}
	return devs
}

func (e *deployEnv) planner(devs []*device.Device) (fl.Planner, error) {
	p := e.env.Preset
	return selection.NewHELCFL(devs, wireless.DefaultChannel(), e.env.ModelBits, core.Params{
		Eta: p.Eta, Fraction: p.Fraction, StepsPerRound: p.LocalSteps, Clamp: true,
	})
}

// reference runs the same campaign in process with wire-precision
// quantization and returns its final global parameters.
func (e *deployEnv) reference() ([]float64, error) {
	devs := e.mirroredDevices()
	planner, err := e.planner(devs)
	if err != nil {
		return nil, err
	}
	p := e.env.Preset
	res, err := fl.Run(fl.Config{
		Spec: e.env.Spec, Devices: devs, Channel: wireless.DefaultChannel(),
		UserData: e.env.UserData, Test: e.env.Synth.Test, Planner: planner,
		LR: p.LR, LocalSteps: p.LocalSteps, MaxRounds: e.rounds, EvalEvery: e.rounds,
		QuantizeUploads: true, QuantizeBroadcast: true, Seed: e.seed,
	})
	if err != nil {
		return nil, err
	}
	return res.Model.GetFlatParams(), nil
}

// flcc is one running FLCC server behind a loopback HTTP listener.
type flcc struct {
	srv *deploy.Server
	ts  *httptest.Server
	url string
}

// start launches a server that checkpoints into dir; tr, when non-nil,
// receives its http.server spans.
func (e *deployEnv) start(dir string, tr *tracer) (*flcc, error) {
	cfg := deploy.ServerConfig{
		Spec: e.env.Spec, Seed: e.seed, ExpectedUsers: e.users(), Rounds: e.rounds,
		NewPlanner: e.planner, CheckpointDir: dir,
	}
	if tr != nil {
		cfg.Trace = tr.rec
	}
	srv, err := deploy.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	return &flcc{srv: srv, ts: ts, url: ts.URL}, nil
}

func (f *flcc) close() {
	f.ts.Close()
	f.srv.Close()
}

// global is the server's current global model.
func (f *flcc) global() []float64 { return f.srv.Global().GetFlatParams() }

// counters sums the server's /metrics counters by family name.
func (f *flcc) counters() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := f.srv.Metrics().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// driver drives a share of the fleet over one keep-alive connection.
type driver struct {
	e      *deployEnv
	http   *http.Client
	global *nn.Sequential // decode target for the broadcast model
	users  map[int]*fl.Client
}

func (e *deployEnv) newDriver(users []int) *driver {
	rng := rand.New(rand.NewSource(e.seed))
	d := &driver{
		e:      e,
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
		global: e.env.Spec.Build(rng),
		users:  map[int]*fl.Client{},
	}
	// One training model per driver: LocalUpdate overwrites its
	// parameters from the broadcast, and a driver trains one user at a time.
	model := e.env.Spec.Build(rng)
	for _, q := range users {
		d.users[q] = fl.NewClient(q, e.env.UserData[q], model, e.env.Spec.FlattensInput())
	}
	return d
}

func (d *driver) close() { d.http.CloseIdleConnections() }

func (d *driver) do(req *http.Request, want int) ([]byte, error) {
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", req.Method, req.URL.Path, resp.StatusCode, want, bytes.TrimSpace(body))
	}
	return body, nil
}

func (d *driver) register(base string, q int) error {
	body, err := json.Marshal(d.e.registration(q))
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/register", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, err = d.do(req, http.StatusOK)
	return err
}

// pollReply is the part of a poll response the driver acts on.
type pollReply struct {
	training, done bool
	round          int
	selected       bool
}

func (d *driver) poll(base string, q int) (pollReply, error) {
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/poll?user=%d", base, q), nil)
	if err != nil {
		return pollReply{}, err
	}
	body, err := d.do(req, http.StatusOK)
	if err != nil {
		return pollReply{}, err
	}
	var r deploy.PollResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return pollReply{}, err
	}
	return pollReply{
		training: r.Phase == deploy.PhaseTraining, done: r.Phase == deploy.PhaseDone,
		round: r.Round, selected: r.Selected,
	}, nil
}

func (d *driver) fetch(base string, round int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/model?round=%d", base, round), nil)
	if err != nil {
		return nil, err
	}
	return d.do(req, http.StatusOK)
}

// decode parses a broadcast payload into flat parameters.
func (d *driver) decode(payload []byte) ([]float64, error) {
	if err := nn.LoadParamBytes(d.global, payload); err != nil {
		return nil, err
	}
	return d.global.GetFlatParams(), nil
}

// train runs user q's local update (Eq. 3) from the broadcast parameters.
func (d *driver) train(q int, global []float64) {
	p := d.e.env.Preset
	d.users[q].LocalUpdate(global, p.LR, p.LocalSteps)
}

// encode serializes user q's just-trained model for upload.
func (d *driver) encode(q int) []byte { return nn.ParamBytes(d.users[q].Model()) }

func (d *driver) upload(base string, q, round int, payload []byte) error {
	req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("%s/upload?user=%d&round=%d", base, q, round), bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	_, err = d.do(req, http.StatusNoContent)
	return err
}

// deployProbes are single-layer timings taken outside the timed window.
type deployProbes struct {
	walAppend, paramDecode, snapshot []time.Duration
}

// probe times one upload-sized WAL append, one payload decode, and one
// snapshot write in dir, reps times each.
func (e *deployEnv) probe(dir string, reps int) (deployProbes, error) {
	var pr deployProbes
	model := e.env.Spec.Build(rand.New(rand.NewSource(e.seed)))
	payload := nn.ParamBytes(model)
	wal, _, err := checkpoint.OpenWAL(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return pr, err
	}
	defer wal.Close()
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := wal.Append(checkpoint.Record{Type: checkpoint.RecordUpload, Round: i, User: i, Payload: payload}); err != nil {
			return pr, err
		}
		t1 := time.Now()
		if err := nn.LoadParamBytes(model, payload); err != nil {
			return pr, err
		}
		t2 := time.Now()
		if err := checkpoint.WriteFile(filepath.Join(dir, "probe.snapshot"), payload); err != nil {
			return pr, err
		}
		t3 := time.Now()
		pr.walAppend = append(pr.walAppend, t1.Sub(t0))
		pr.paramDecode = append(pr.paramDecode, t2.Sub(t1))
		pr.snapshot = append(pr.snapshot, t3.Sub(t2))
	}
	return pr, nil
}
