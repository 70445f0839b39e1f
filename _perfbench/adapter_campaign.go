package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"helcfl/internal/core"
	"helcfl/internal/experiments"
	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/obs/span"
	"helcfl/internal/selection"
)

// This file is the campaign-tiny workload's only contact with the module:
// the experiments registry, the grid runner, and the fl/nn probes.

// campaign is one registry experiment expanded at one preset and seed.
type campaign struct {
	preset experiments.Preset
	def    experiments.Definition
	seed   int64
	plan   *experiments.Plan
}

// cellEvent is a grid.Runner progress event.
type cellEvent struct {
	index  int
	done   bool
	failed bool
	at     time.Time
}

// campaignRun is what one execution of the campaign produced.
type campaignRun struct {
	wall        time.Duration // grid run plus rendering
	runnerWall  time.Duration // grid run alone
	digest      string        // sha256 of the rendered output
	cellsFailed int
	// best holds, per setting, the best accuracy of HELCFL and of SL.
	best map[string][2]float64
}

// newCampaign expands registry experiment "all" at the tiny preset; small
// shrinks it to the Fig. 2 cells at 20 rounds.
func newCampaign(seed int64, small bool) (*campaign, error) {
	p, name := experiments.Tiny(), "all"
	if small {
		p.MaxRounds, name = 20, "fig2"
	}
	def, ok := experiments.LookupExperiment(name)
	if !ok {
		return nil, fmt.Errorf("no registry experiment %q", name)
	}
	c := &campaign{preset: p, def: def, seed: seed}
	return c, c.replan()
}

func (c *campaign) replan() error {
	plan, err := c.def.Plan(c.preset, c.seed, experiments.Options{})
	if err != nil {
		return err
	}
	c.plan = plan
	return nil
}

func (c *campaign) cells() int { return len(c.plan.Cells) }

// buildEnvs builds both settings' environments from scratch.
func (c *campaign) buildEnvs() error {
	for _, s := range []experiments.Setting{experiments.IID, experiments.NonIID} {
		if _, err := experiments.BuildEnv(c.preset, s, c.seed); err != nil {
			return err
		}
	}
	return nil
}

// run executes the campaign on a pool of `parallel` workers exactly as the
// CLI does (fresh environment cache, grid run, render), with tr's recorder
// in the context when tr is non-nil.
func (c *campaign) run(parallel int, tr *tracer, onCell func(cellEvent)) (campaignRun, error) {
	experiments.ResetEnvCache()
	runtime.GC()
	ctx := context.Background()
	if tr != nil {
		ctx = span.NewContext(ctx, tr.rec)
	}
	r := &grid.Runner{Parallel: parallel}
	if onCell != nil {
		r.Progress = func(ev grid.Event) {
			onCell(cellEvent{index: ev.Index, done: ev.Done, failed: ev.Err != nil, at: time.Now()})
		}
	}
	var out campaignRun
	start := time.Now()
	res, err := r.Run(ctx, c.plan.Cells)
	out.runnerWall = time.Since(start)
	var cellErrs grid.Errors
	if errors.As(err, &cellErrs) {
		out.cellsFailed = len(cellErrs)
	} else if err != nil {
		return out, err
	}
	var buf bytes.Buffer
	renderErr := c.plan.Render(res, experiments.Output{W: &buf})
	out.wall = time.Since(start)
	if err != nil {
		return out, err
	}
	if renderErr != nil {
		return out, renderErr
	}
	sum := sha256.Sum256(buf.Bytes())
	out.digest = hex.EncodeToString(sum[:])
	out.best, err = c.bestAccuracy(res)
	return out, err
}

// bestAccuracy folds the Fig. 2 cells of both settings out of the
// campaign's results.
func (c *campaign) bestAccuracy(res []any) (map[string][2]float64, error) {
	index := map[string]int{}
	for i, cell := range c.plan.Cells {
		index[cell.Key()] = i
	}
	best := map[string][2]float64{}
	for _, s := range []experiments.Setting{experiments.IID, experiments.NonIID} {
		cells := experiments.Fig2Cells(c.preset, s, c.seed)
		sub := make([]any, len(cells))
		for i, cell := range cells {
			j, ok := index[cell.Key()]
			if !ok {
				return nil, fmt.Errorf("campaign has no cell %s", cell.Key())
			}
			sub[i] = res[j]
		}
		fig, err := experiments.AssembleFig2(s, sub)
		if err != nil {
			return nil, err
		}
		best[string(s)] = [2]float64{fig.Curve("HELCFL").Best(), fig.Curve("SL").Best()}
	}
	return best, nil
}

// campaignProbes are single-layer timings taken outside the timed window.
type campaignProbes struct {
	localUpdate, evaluate, fedavg []time.Duration
	allocsPerRound                float64
}

// probe times the layers under a campaign cell on the IID environment: one
// user's local update, test-set evaluation, FedAvg over one cohort, and the
// allocations of one steady-state engine round.
func (c *campaign) probe(reps int) (campaignProbes, error) {
	var pr campaignProbes
	env, err := experiments.BuildEnv(c.preset, experiments.IID, c.seed)
	if err != nil {
		return pr, err
	}
	flatten := env.Spec.FlattensInput()
	model := env.Spec.Build(rand.New(rand.NewSource(c.seed)))
	global := model.GetFlatParams()
	client := fl.NewClient(0, env.UserData[0], env.Spec.Build(rand.New(rand.NewSource(c.seed))), flatten)
	cohort := int(math.Ceil(float64(c.preset.Users) * c.preset.Fraction))
	uploads := make([][]float64, cohort)
	weights := make([]int, cohort)
	for i := range uploads {
		up, _ := client.LocalUpdate(global, c.preset.LR, c.preset.LocalSteps)
		uploads[i] = append([]float64(nil), up...)
		weights[i] = env.UserData[i].N()
	}
	dst := make([]float64, len(global))
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		client.LocalUpdate(global, c.preset.LR, c.preset.LocalSteps)
		t1 := time.Now()
		fl.Evaluate(model, env.Synth.Test, flatten)
		t2 := time.Now()
		fl.FedAvgInto(dst, uploads, weights)
		t3 := time.Now()
		pr.localUpdate = append(pr.localUpdate, t1.Sub(t0))
		pr.evaluate = append(pr.evaluate, t2.Sub(t1))
		pr.fedavg = append(pr.fedavg, t3.Sub(t2))
	}
	pr.allocsPerRound, err = engineAllocsPerRound(env)
	return pr, err
}

// engineAllocsPerRound counts heap allocations of one steady-state HELCFL
// engine round (the third of four, evaluation off).
func engineAllocsPerRound(env *experiments.Env) (float64, error) {
	p := env.Preset
	planner, err := selection.NewHELCFL(env.Devices, env.Channel, env.ModelBits, core.Params{
		Eta: p.Eta, Fraction: p.Fraction, StepsPerRound: p.LocalSteps, Clamp: true,
	})
	if err != nil {
		return 0, err
	}
	e, err := fl.NewEngine(fl.Config{
		Spec: env.Spec, Devices: env.Devices, Channel: env.Channel, UserData: env.UserData,
		Test: env.Synth.Test, Planner: planner, LR: p.LR, LocalSteps: p.LocalSteps,
		MaxRounds: 4, EvalEvery: 100, Seed: env.Seed + 100,
	})
	if err != nil {
		return 0, err
	}
	defer e.Result() // drains the engine's worker pool once every round ran
	var before, after runtime.MemStats
	for round := 0; ; round++ {
		if round == 2 {
			runtime.ReadMemStats(&before)
		}
		ok, err := e.Step()
		if err != nil {
			return 0, err
		}
		if round == 2 {
			runtime.ReadMemStats(&after)
		}
		if !ok {
			break
		}
	}
	return float64(after.Mallocs - before.Mallocs), nil
}
