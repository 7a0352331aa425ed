// Command bench is the forwarding-path benchmark: it starts a real fwdd
// child over TCP loopback per workload, drives it closed-loop through
// core.ClientConfig clients, verifies the bytes, and reports end-to-end,
// per-layer and isolated-layer metrics by name. See README.md.
//
//	bash bench/run.sh                                   # all workloads + isolated layers
//	bash bench/run.sh -workload small_write_4k          # one workload
//	bash bench/run.sh -layers                           # isolated layers only
//	bash bench/run.sh -repeat 2                         # repeatability check
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   # BENCHMARK.json contract
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many times a run sets a workload up from nothing;
// setup_s is their median.
const setupRuns = 3

// isoDur is how long each isolated layer is driven.
const isoDur = 400 * time.Millisecond

// spec is BENCHMARK.json: the harness reads its run length and, for
// -repeat, its regression bounds from there so they are declared once.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (spec, error) {
	var s spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// findRoot walks up from the working directory to the checkout that holds
// cmd/fwdd, so the harness works from the root and from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "fwdd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/fwdd not found above the working directory: run from the repository checkout")
		}
		dir = parent
	}
}

// plan is one run's fixed shape: the same on both sides of any comparison.
type plan struct {
	seed                  int64
	conns                 int
	warmup, timed, traced time.Duration
	setups                int
	fwdd, scratch, outDir string
}

// workloadResult is one workload's numbers from one run.
type workloadResult struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Seed       int64   `json:"seed"`
	Attempted  int64   `json:"attempted"`
	Failed     int64   `json:"failed"`
	FailedFrac float64 `json:"failed_frac"`
	Verified   int64   `json:"verified_records"`
	Mismatched int64   `json:"mismatched_records"`
	TimedS     float64 `json:"timed_s"`
	Samples    uint64  `json:"latency_samples"`
	// MinSliceSamples is the smallest slice's sample count: each slice's
	// p99 must have at least ten samples beyond it.
	MinSliceSamples uint64 `json:"min_slice_latency_samples"`
	// The per-slice values the end-to-end medians are taken over, kept so a
	// disturbed run can be told from a slow one.
	SliceGoodput []float64 `json:"slice_goodput_mib_s"`
	SliceP50US   []float64 `json:"slice_p50_us"`
	SliceP99US   []float64 `json:"slice_p99_us"`

	SetupS    []float64              `json:"setup_runs_s"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	TracedS   float64                `json:"traced_s,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runWorkload measures one workload: set-up (repeated, each from nothing),
// the untraced timed window, the traced pass if the plan has one, the
// drain, byte verification, and - with the daemon gone - the isolated
// layers its efficiency is taken against.
func runWorkload(ctx context.Context, w workload, pl plan) (*workloadResult, error) {
	res := &workloadResult{Workload: w.name, Why: w.why, Seed: pl.seed}
	var r *rig
	for i := 0; i < pl.setups; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		r, err = setup(ctx, w, pl.seed, pl.fwdd, filepath.Join(pl.scratch, fmt.Sprintf("%s-%d", w.name, i)), pl.conns, pl.warmup)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	layer, err := measure(ctx, r, pl, res)
	r.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if layer != nil {
		iso, slowest, err := workloadLayers(ctx, w, pl.scratch, pl.conns, isoDur)
		if err != nil {
			return nil, fmt.Errorf("%s: isolated layers: %w", w.name, err)
		}
		for k, v := range iso {
			layer[k] = v
		}
		layer["efficiency"] = ratio(res.EndToEnd["goodput_mib_s"].Value, slowest)
		res.PerLayer = emit(perLayer, layer)
	}
	return res, nil
}

// measure is the part of runWorkload that needs the daemon. It fills res
// and returns the traced pass's per-layer metrics, nil without one.
func measure(ctx context.Context, r *rig, pl plan, res *workloadResult) (layer map[string]float64, err error) {
	timed := r.load(ctx, pl.timed, false)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n := timed.minSliceSamples(); !tailSupported(n, 0.99) {
		return nil, fmt.Errorf("only %d latency samples in one %v slice: p99 needs at least ten beyond it", n, timed.sliceDur)
	}
	res.TimedS, res.Samples, res.MinSliceSamples = pl.timed.Seconds(), timed.lat.count, timed.minSliceSamples()
	for i := range timed.slices {
		sl := &timed.slices[i]
		res.SliceGoodput = append(res.SliceGoodput, timed.sliceGoodput(sl))
		res.SliceP50US = append(res.SliceP50US, sl.lat.quantile(0.5)/1e3)
		res.SliceP99US = append(res.SliceP99US, sl.lat.quantile(0.99)/1e3)
	}
	res.Attempted, res.Failed = timed.ops, timed.failed
	res.EndToEnd = emit(endToEnd, map[string]float64{
		"goodput_mib_s": timed.goodputMiBs(),
		"op_p50_us":     timed.quantileUS(0.50),
		"op_p99_us":     timed.quantileUS(0.99),
		"setup_s":       median(res.SetupS),
	})

	if pl.traced > 0 {
		var tp *phase
		if tp, layer, err = r.tracedPass(ctx, pl.traced); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		layer["trace_overhead_frac"] = 1 - ratio(tp.goodputMiBs(), timed.goodputMiBs())
		res.Attempted, res.Failed = res.Attempted+tp.ops, res.Failed+tp.failed
		res.TracedS = pl.traced.Seconds()
		res.TraceFile = filepath.Join(pl.outDir, r.w.name+".trace.jsonl")
		if err := writeTrace(res.TraceFile, tp.spans); err != nil {
			return nil, err
		}
	}

	drained, err := r.drain(ctx)
	if err != nil {
		return nil, err
	}
	if layer != nil {
		layer["drain_s"] = drained.Seconds()
	}
	res.Verified, res.Mismatched, err = r.verify(ctx)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = res.Attempted+res.Verified, res.Failed+res.Mismatched
	res.FailedFrac = ratio(float64(res.Failed), float64(res.Attempted))
	return layer, nil
}

// runResult is one full run: what bench/out/result.json holds.
type runResult struct {
	Env       envBlock          `json:"env"`
	Seconds   float64           `json:"timed_seconds"`
	Workloads []*workloadResult `json:"workloads"`
	Layers    []layerResult     `json:"isolated_layers,omitempty"`
}

func printWorkload(res *workloadResult, pl plan) {
	w, _ := findWorkload(res.Workload)
	fmt.Printf("== %s  (seed %d, closed loop, %d conns x depth %d over TCP loopback, %d B records)\n",
		res.Workload, res.Seed, pl.conns, w.depth, w.record)
	fmt.Printf("  end-to-end: untraced window of %.2f s, medians over %d slices, %d latency samples (>= %d per slice), set-up x%d\n",
		res.TimedS, len(res.SliceGoodput), res.Samples, res.MinSliceSamples, len(res.SetupS))
	for _, d := range endToEnd {
		fmt.Printf("    %-28s %14.4f %s\n", d.Name, res.EndToEnd[d.Name].Value, d.Unit)
	}
	fmt.Printf("    %-28s %14.6f ratio  (%d failed of %d attempted; %d records read back, %d mismatched)\n",
		"failed_frac", res.FailedFrac, res.Failed, res.Attempted, res.Verified, res.Mismatched)
	if res.PerLayer == nil {
		return
	}
	fmt.Printf("  per-layer: traced pass of %.2f s, spans in %s\n", res.TracedS, res.TraceFile)
	for _, d := range perLayer {
		fmt.Printf("    %-28s %14.4f %-6s [%s]\n", d.Name, res.PerLayer[d.Name].Value, d.Unit, d.Layer)
	}
}

func printLayers(layers []layerResult) {
	fmt.Println("== isolated layers (same process, no daemon)")
	for _, l := range layers {
		fmt.Printf("    %-24s %8d B x%-2d %12.1f ns/op %12.2f MiB/s %8.2f allocs/op", l.Name, l.Bytes, l.Workers, l.NsPerOp, l.MiBPerS, l.AllocsPerOp)
		keys := make([]string, 0, len(l.Extra))
		for k := range l.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s=%.3g", k, l.Extra[k])
		}
		fmt.Println()
	}
}

// compareRuns prints, per end-to-end metric and workload, the runs' values,
// their relative spread and the declared bound, and reports whether every
// spread is within its bound.
func compareRuns(runs []*runResult, sp spec) bool {
	bounds := make(map[string]float64)
	for _, m := range sp.EndToEnd {
		if m.Bound != nil {
			bounds[m.Name] = *m.Bound
		}
	}
	ok := true
	fmt.Printf("== repeatability over %d runs\n", len(runs))
	for wi, wr := range runs[0].Workloads {
		for _, d := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			var vals []string
			for _, run := range runs {
				v := run.Workloads[wi].EndToEnd[d.Name].Value
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				vals = append(vals, fmt.Sprintf("%.4f", v))
			}
			diff := ratio(hi-lo, lo)
			verdict := "ok"
			if diff > bounds[d.Name] {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Printf("    %-16s %-14s %s %s  diff %.4f  bound %.2f  %s\n",
				wr.Workload, d.Name, strings.Join(vals, " "), d.Unit, diff, bounds[d.Name], verdict)
		}
		for _, run := range runs {
			if run.Workloads[wi].Failed > 0 {
				fmt.Printf("    %-16s failed_frac %.6f: any failure is a regression\n", wr.Workload, run.Workloads[wi].FailedFrac)
				ok = false
			}
		}
	}
	return ok
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "run one workload (default: all four, then the isolated layers)")
	seed := flag.Int64("seed", 1, "seed for offsets, op mix and payloads")
	seconds := flag.Float64("seconds", 0, "timed window in seconds (default: run_seconds from BENCHMARK.json)")
	trace := flag.Int("trace", -1, "0: timed window only, three set-ups; 1: half-length window then traced pass, one set-up; default: full window then a quarter-length traced pass")
	layersOnly := flag.Bool("layers", false, "measure only the isolated layers")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and compare end-to-end metrics against their bounds")
	smoke := flag.Bool("smoke", false, "1 s windows, bounds not enforced: checks that everything runs")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *smoke {
		*seconds = 1
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 || *repeat < 1 {
		return fail(errors.New("need -seconds > 0, -trace in {0,1}, -repeat >= 1"))
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []workload{w}
	}

	// SIGINT/SIGTERM cancel ctx; every blocking step takes it, so the run
	// unwinds through its defers and the child and scratch dirs still go.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	conns := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(conns)
	buildDir := filepath.Join(root, ".bench_build")
	scratch := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)

	window := time.Duration(*seconds * float64(time.Second))
	pl := plan{
		seed: *seed, conns: conns, scratch: scratch, outDir: filepath.Join(root, "bench", "out"),
		warmup: window * 3 / 20, timed: window, traced: window / 4, setups: setupRuns,
	}
	switch *trace {
	case 0:
		pl.traced = 0
	case 1:
		pl.timed, pl.traced, pl.setups = window/2, window/2, 1
	}
	env := readEnv(scratch, conns)

	if *layersOnly {
		layers, err := allLayers(ctx, scratch, conns, isoDur)
		if err != nil {
			return fail(err)
		}
		printLayers(layers)
		if err := writeJSON(filepath.Join(pl.outDir, "result.json"), runResult{Env: env, Layers: layers}); err != nil {
			return fail(err)
		}
		return 0
	}

	if pl.fwdd, err = buildFwdd(ctx, root, buildDir); err != nil {
		return fail(err)
	}
	var runs []*runResult
	for rep := 0; rep < *repeat; rep++ {
		run := &runResult{Env: env, Seconds: *seconds}
		for _, w := range selected {
			res, err := runWorkload(ctx, w, pl)
			if err != nil {
				return fail(err)
			}
			printWorkload(res, pl)
			run.Workloads = append(run.Workloads, res)
		}
		if *workloadName == "" {
			if run.Layers, err = allLayers(ctx, scratch, conns, isoDur); err != nil {
				return fail(err)
			}
			printLayers(run.Layers)
		}
		runs = append(runs, run)
	}
	var out any = runs[0]
	if *repeat > 1 {
		out = runs
	}
	if err := writeJSON(filepath.Join(pl.outDir, "result.json"), out); err != nil {
		return fail(err)
	}

	code := 0
	for _, run := range runs {
		for _, res := range run.Workloads {
			if res.Failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed or read back wrong\n", res.Workload, res.Failed, res.Attempted)
				code = 1
			}
		}
	}
	if *repeat > 1 && !compareRuns(runs, sp) && !*smoke {
		code = 1
	}
	if *workloadName != "" && *repeat == 1 {
		// The BENCHMARK.json contract: one JSON object as the last line.
		res := runs[0].Workloads[0]
		metrics := res.EndToEnd
		if *trace == 1 {
			metrics = res.PerLayer
		}
		line, err := json.Marshal(map[string]any{
			"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
	}
	return code
}
