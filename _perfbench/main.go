// Command perfbench is the repository benchmark. It drives one of three
// closed-loop workloads for a fixed number of seconds, checks the outputs
// for correctness, and prints one JSON result line:
//
//	bash _perfbench/run.sh --workload campaign-tiny --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run, together with a
// per-layer time table on the lines before it. --workload all runs every
// workload in turn and reports their workload-specific end-to-end metrics.
//
// The workloads (see BENCHMARK.json for why each exists):
//
//	campaign-tiny   registry experiment "all" at the tiny preset on a 1-worker grid.Runner
//	round-scale     Q = 100,000 fleet, PlanRoundInto + SimulateRoundGains per round
//	deploy-durable  deploy.Server with an on-disk checkpoint dir behind loopback HTTP
//
// Every call into the module's internal packages sits in one adapter file
// per workload (adapter_*.go); the workload files only time those calls.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the metric set of an untraced run, identical on every
// workload. throughput counts the workload's unit of work (campaigns,
// scale rounds, deploy rounds); op_p50_ms and op_tail_ms are the latency
// of its per-operation samples (grid cells, scale rounds, uploads).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
	{"throughput", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// perLayer is the metric set of a traced run. Every traced run reports
// all of them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"grid.cell_busy_s", "s"},
	{"grid.worker_idle_share", "ratio"},
	{"grid.cells_failed", "count"},
	{"experiments.env_build_s", "s"},
	{"fl.plan_s", "s"},
	{"fl.train_s", "s"},
	{"fl.aggregate_s", "s"},
	{"fl.eval_s", "s"},
	{"fl.unattributed_share", "ratio"},
	{"fl.rounds", "count"},
	{"fl.allocs_per_round", "count"},
	{"nn.local_update_ms", "ms"},
	{"fl.evaluate_ms", "ms"},
	{"fl.fedavg_ms", "ms"},
	{"client.train_p50_ms", "ms"},
	{"core.plan_ms", "ms"},
	{"core.select_ms", "ms"},
	{"core.dvfs_ms", "ms"},
	{"core.heap_pushes", "count"},
	{"sim.round_ms", "ms"},
	{"wireless.tdma_ms", "ms"},
	{"device.fleet_build_s", "s"},
	{"core.scheduler_init_s", "s"},
	{"device.aos_view_s", "s"},
	{"deploy.register_ms", "ms"},
	{"deploy.poll_p50_ms", "ms"},
	{"deploy.model_fetch_p50_ms", "ms"},
	{"deploy.round_close_ms", "ms"},
	{"deploy.wal_records", "count"},
	{"deploy.snapshot_writes", "count"},
	{"deploy.bytes_up", "bytes"},
	{"deploy.bytes_down", "bytes"},
	{"deploy.http_requests", "count"},
	{"deploy.rejected_uploads", "count"},
	{"checkpoint.wal_append_ms", "ms"},
	{"nn.param_decode_ms", "ms"},
	{"checkpoint.snapshot_ms", "ms"},
	{"unattributed_share", "ratio"},
	{"trace_overhead_share", "ratio"},
}

// namedUnits gives the units of the workload-specific end-to-end metrics
// each workload also reports in its record line under their own names.
var namedUnits = map[string]string{
	"error_rate":          "ratio",
	"campaign_s":          "s",
	"cell_p50_s":          "s",
	"cell_p90_s":          "s",
	"scale_rounds_per_s":  "1/s",
	"scale_round_p50_ms":  "ms",
	"scale_round_p90_ms":  "ms",
	"deploy_rounds_per_s": "1/s",
	"upload_p50_ms":       "ms",
	"upload_p95_ms":       "ms",
	"upload_p99_ms":       "ms",
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// small shrinks the workload to its smallest size (the smoke test).
	small bool
	// scratch is a directory inside the checkout for on-disk state.
	scratch string
	// corrupt, when set, is applied to the reference result a workload
	// compares its output against; the smoke test uses it to prove a wrong
	// result is counted as a failure.
	corrupt func([]float64)
}

type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"campaign-tiny", runCampaign},
	{"round-scale", runScale},
	{"deploy-durable", runDeploy},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// stamp describes the machine a record was measured on.
type stamp struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	FSType     string `json:"fs_type"`
}

func main() {
	name := flag.String("workload", "", "workload to run: campaign-tiny, round-scale, deploy-durable, or all")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	root := flag.String("root", ".", "checkout root; on-disk state goes under <root>/.bench_build")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool, root string) error {
	scratch, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "state-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(scratch)
	cfg := config{seed: seed, seconds: seconds, trace: trace, scratch: scratch}
	st := stamp{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		FSType:     fsType(scratch),
	}
	if name == "all" {
		return runAll(cfg, st)
	}
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		o, err := w.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printRecord(w.name, cfg, st, o)
		res := o.result()
		if trace {
			res.Metrics = pick(perLayer, o.layers)
		} else {
			res.Metrics = pick(endToEnd, o.endToEnd())
		}
		return printResult(res)
	}
	return fmt.Errorf("unknown workload %q", name)
}

// runAll runs every workload untraced and reports the workload-specific
// end-to-end metrics of all three under their own names.
func runAll(cfg config, st stamp) error {
	cfg.trace = false
	total := result{Correct: true, Metrics: map[string]metricOut{}}
	for _, w := range workloads {
		o, err := w.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printRecord(w.name, cfg, st, o)
		r := o.result()
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range o.namedMetrics() {
			if k == "error_rate" {
				k = w.name + "." + k
			}
			total.Metrics[k] = v
		}
		e2e := pick(endToEnd, o.endToEnd())
		for _, k := range []string{"setup_s", "peak_rss_mb"} {
			total.Metrics[w.name+"."+k] = e2e[k]
		}
	}
	return printResult(total)
}

// pick returns exactly the metrics in defs, reading 0 for any the workload
// did not measure.
func pick(defs []metricDef, vals map[string]float64) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		out[d.name] = metricOut{finite(vals[d.name]), d.unit}
	}
	return out
}

// finite maps a rate over no completed work (NaN, ±Inf) to 0, which JSON
// can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// printRecord writes the human-readable record: the machine stamp, the
// workload-specific end-to-end metrics, failed checks, and (traced runs)
// the per-layer time table.
func printRecord(name string, cfg config, st stamp, o *outcome) {
	rec := map[string]any{"workload": name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace, "stamp": st}
	rec["metrics"] = o.namedMetrics()
	line, _ := json.Marshal(rec)
	fmt.Printf("record %s\n", line)
	for _, f := range o.failures {
		fmt.Printf("FAILED %s: %s\n", name, f)
	}
	if cfg.trace {
		fmt.Print(o.table.render(name, o.layers["trace_overhead_share"]))
	}
}

func printResult(r result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(fs.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", fs.Type)
}
