// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload against the program's public entry
// points (geofm.Pretrain, geofm.PretrainDistributed and the wall-clock
// inference server), checks the outputs, and prints its metrics as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up time, peak
// memory, images/s and latency percentiles); with --trace 1 the run
// instead times calls into each layer's public functions from this
// package's own code and reports the per-layer breakdown, writing its
// spans as a Chrome trace-event file under .bench_build/traces.
//
// Run it from the repository root through the wrapper, which builds it
// first:
//
//	bash perfbench/run.sh --workload pretrain-base --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/hw"
)

// workload is one benchmark input set: a model geometry plus how it is
// driven. Every workload trains and serves the same analog model in its
// traced run, so each reports every per-layer metric.
type workload struct {
	name         string
	model        string // vit.Analog name
	image, patch int
	// batch is the global training batch; ranks > 1 trains through
	// PretrainDistributed (FULL_SHARD, bf16, overlap), 1 through
	// Pretrain (fp32).
	batch, ranks int
	// workers is the loader worker count per rank.
	workers int
	// stepsPerEpoch and epochs size one training call; the timed run
	// repeats identical calls until its time is up.
	stepsPerEpoch, epochs int
	// localBatch is the per-rank batch the traced replica loop and the
	// kernel ladder run at.
	localBatch int
	// serve selects the serving measurement for the untraced run instead
	// of training.
	serve bool
	// procs caps GOMAXPROCS, and with it the kernel pool (0 = every
	// core).
	procs int
	// lowRate and highRate are the traced serving section's two
	// offered loads (req/s): the first bound by the batching window,
	// the second by compute.
	lowRate, highRate float64
}

var workloads = []workload{
	{name: "pretrain-base", model: "ViT-Base", image: 32, patch: 8,
		batch: 16, ranks: 1, workers: 2, stepsPerEpoch: 24, epochs: 6,
		localBatch: 16, lowRate: 100, highRate: 200},
	{name: "pretrain-3b-fsdp", model: "ViT-3B", image: 64, patch: 8,
		batch: 16, ranks: 2, workers: 1, stepsPerEpoch: 4, epochs: 5,
		localBatch: 8, lowRate: 25, highRate: 50},
	// One engine on one core: split two ways by the kernel pool, the
	// small serving batches made a 2-vCPU host's speed swing between
	// runs by more than the bound, while training's larger steps split
	// steadily.
	{name: "serve-1b-open", model: "ViT-1B", image: 64, patch: 8,
		batch: 8, ranks: 1, workers: 2, stepsPerEpoch: 6, epochs: 4,
		localBatch: 8, serve: true, procs: 1, lowRate: 50, highRate: 100},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's metrics, correctness checks and
// operation counts.
type run struct {
	w       workload
	seed    uint64
	seconds float64
	tr      *tracer // nil for an untraced run

	metrics   map[string]metric
	attempted int
	failed    int
	checks    []*checkTally
	stamp     map[string]any
}

// checkTally aggregates every verdict of one named correctness check.
type checkTally struct {
	name      string
	ok, fails int
	detail    string // the first failure's, else the last pass's
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// check records one correctness verdict under name.
func (r *run) check(name string, ok bool, format string, args ...any) {
	var t *checkTally
	for _, c := range r.checks {
		if c.name == name {
			t = c
		}
	}
	if t == nil {
		t = &checkTally{name: name}
		r.checks = append(r.checks, t)
	}
	if ok {
		t.ok++
		if t.fails == 0 {
			t.detail = fmt.Sprintf(format, args...)
		}
	} else {
		if t.fails == 0 {
			t.detail = fmt.Sprintf(format, args...)
		}
		t.fails++
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed: weights, images, masks and arrival schedules derive from it")
	seconds := fs.Float64("seconds", 20, "measured time of the run")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
	traceDir := filepath.Join(".bench_build", "traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	r := &run{w: w, seed: *seed, seconds: *seconds, metrics: map[string]metric{}}
	r.stamp = hostStamp(w, *seed, *traced == 1)

	if *traced == 1 {
		r.tr = newTracer(fmt.Sprintf("%s/seed%d/%d", w.name, *seed, time.Now().UnixNano()))
		err = runTraced(r)
		if err == nil {
			path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
			err = r.tr.writeChrome(path, r.stamp)
			fmt.Fprintf(stdout, "trace %s (%d spans)\n", path, len(r.tr.spans))
		}
	} else {
		err = runUntraced(r)
		r.set("mem_peak_mb", "MB", peakRSSMB())
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	stamp, err := json.Marshal(r.stamp)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "stamp %s\n", stamp)
	correct := true
	for _, c := range r.checks {
		verdict := "ok"
		if c.fails > 0 {
			verdict = "FAIL"
			correct = false
		}
		fmt.Fprintf(stdout, "check %-26s %-4s %d/%d  %s\n", c.name, verdict, c.ok, c.ok+c.fails, c.detail)
	}
	for _, name := range sortedKeys(r.metrics) {
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", name, r.metrics[name].Value, r.metrics[name].Unit)
	}
	res := result{
		Correct:   correct,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON cannot carry them; a missing measurement is a failed run.
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", name, m.Value)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func runUntraced(r *run) error {
	if r.w.serve {
		return serveUntraced(r)
	}
	return trainUntraced(r)
}

// runTraced drives every layer section on the workload's model.
func runTraced(r *run) error {
	if err := trainSection(r); err != nil {
		return err
	}
	if err := ladderSection(r); err != nil {
		return err
	}
	if err := distSection(r); err != nil {
		return err
	}
	return serveSection(r)
}

// hostStamp records what a result depends on besides the code: the
// commit, the host's cores and CPU features, the runtime, and the seed.
func hostStamp(w workload, seed uint64, traced bool) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	f := hw.Detect()
	st := map[string]any{
		"workload":   w.name,
		"traced":     traced,
		"seed":       seed,
		"commit":     commit,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"features": map[string]any{
			"arch": f.Arch, "os": f.OS, "avx2": f.AVX2, "fma": f.FMA, "osymm": f.OSYMM,
			"purego": f.PureGo, "kernel_isa": f.KernelISA(),
		},
	}
	// More busy goroutines than cores: the ranks and the kernel pool
	// time-share the CPUs, so the run measures throughput at this world
	// size, not scaling across it.
	if w.ranks > 1 {
		st["oversubscribed"] = true
		st["scaling"] = "not reported: ranks and the kernel pool share the host's cores"
	}
	return st
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timeSetup runs setup n times and returns the median wall time of a
// call in seconds together with the last call's result. A collection
// before each call keeps earlier calls' garbage out of its time and out
// of the process's peak memory.
func timeSetup[T any](n int, setup func() (T, error)) (T, float64, error) {
	var v T
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return v, median(times), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
