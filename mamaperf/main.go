// Command mamaperf is the repository's end-to-end benchmark. One
// invocation runs one named workload with one seed for a fixed number
// of seconds and prints, as its last line, a JSON object with the
// operations attempted and failed, whether every output passed its
// correctness checks, and the metrics:
//
//	mamaperf --workload fig9 --seed 1 --seconds 15 --trace 0
//
// Every workload is measured in rounds. A round is one fresh child
// process (this binary re-executed with -child) that sets up, runs a
// fixed list of operations, checks their outputs and reports back, so
// each round starts from an empty trace pool, empty runner caches and
// an empty result cache. The parent starts rounds until --seconds have
// passed and reports medians over them.
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1
// rounds alternate between untraced and traced; traced rounds record
// spans around every call the benchmark makes into a layer and a CPU
// profile of the child, and the metrics are the per-layer ones plus
// the tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"micromama/internal/trace"
)

// roundTimeout bounds one child round; the driver-facing limit is 180 s
// per invocation, and a round that hangs must not eat all of it.
const roundTimeout = 150 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed: the generated mixes and specs derive from it")
		seconds = flag.Float64("seconds", 20, "how long to keep starting rounds")
		traced  = flag.Int("trace", 0, "1 = per-layer run (spans and CPU profile), 0 = end-to-end run")
		scratch = flag.String("scratch", ".bench_build/run", "directory for temporary cache dirs and span dumps")
		child   = flag.Bool("child", false, "run a single round in this process (used by the parent)")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "mamaperf: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "mamaperf: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mamaperf:", err)
		os.Exit(1)
	}
	if *child {
		if err := childMain(w, *seed, *traced == 1, *scratch); err != nil {
			fmt.Fprintln(os.Stderr, "mamaperf child:", err)
			os.Exit(1)
		}
		return
	}
	out, err := parentMain(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mamaperf:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mamaperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// childMain runs one round and writes "ready" once set-up is over, then
// the round's JSON result, to standard output.
func childMain(w workloadDef, seed uint64, traced bool, scratch string) error {
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	env := &roundEnv{
		seed:    seed,
		size:    fullSize,
		scratch: scratch,
		ready: func() {
			fmt.Println("ready")
		},
	}
	var prof *cpuProfile
	if traced {
		env.tr = newTracer()
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
		env.stopProfile = func() {
			if env.layers == nil {
				env.layers = map[string]float64{}
			}
			samples, err := prof.stop()
			if err != nil {
				env.checkf("cpu profile: %v", err)
				return
			}
			for layer, n := range samples {
				env.layers[layer+".cpu_samples"] = float64(n)
			}
		}
	}
	res, err := w.run(ctx, env)
	if err != nil {
		return err
	}
	if env.tr != nil {
		path, err := env.tr.dump(scratch, w.name, seed)
		if err != nil {
			return err
		}
		res.SpanFile = path
		res.Spans = env.tr.summary()
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// roundOutcome is one finished child round as the parent sees it.
type roundOutcome struct {
	res     *roundResult
	traced  bool
	setupS  float64
	peakMB  float64
	exitErr error
}

// runChild starts one round and waits for it. Set-up time runs from
// starting the process to its "ready" line, so it includes exec and
// package initialisation as well as the workload's own set-up.
func runChild(ctx context.Context, w workloadDef, seed uint64, traced bool, scratch string) roundOutcome {
	exe, err := os.Executable()
	if err != nil {
		return roundOutcome{exitErr: err}
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cctx, cancel := context.WithTimeout(ctx, roundTimeout)
	defer cancel()
	cmd := exec.CommandContext(cctx, exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-trace", tr, "-scratch", scratch)
	cmd.Env = childEnv(os.Environ())
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return roundOutcome{exitErr: err}
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return roundOutcome{exitErr: err}
	}
	out := roundOutcome{traced: traced}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 64<<20)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if line == "ready" && out.setupS == 0 {
			out.setupS = time.Since(start).Seconds()
			continue
		}
		last = line
	}
	// Drain whatever a failed scan left so Wait can return.
	_, _ = io.Copy(io.Discard, stdout)
	werr := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.peakMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	if werr != nil {
		out.exitErr = fmt.Errorf("round exited: %w", werr)
		return out
	}
	if out.setupS == 0 {
		out.exitErr = errors.New("round never reported ready")
		return out
	}
	var res roundResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		out.exitErr = fmt.Errorf("round result: %w", err)
		return out
	}
	out.res = &res
	return out
}

// childEnv pins what the workloads fix in code: the trace budget is
// the program's default whatever the caller's environment says, the
// simulator parallelism comes from each workload rather than
// MAMA_SIM_PARALLEL, and no fault injection is armed.
func childEnv(env []string) []string {
	var out []string
	for _, kv := range env {
		if strings.HasPrefix(kv, "MAMA_") {
			continue
		}
		out = append(out, kv)
	}
	return append(out, "MAMA_TRACE_BUDGET_MB="+strconv.Itoa(trace.DefaultTraceBudgetMB))
}

// output is the last line the benchmark prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minRounds keeps a median meaningful even when one round outlasts
// --seconds; a traced run needs one untraced and one traced round.
const minRounds = 2

func parentMain(w workloadDef, seed uint64, seconds time.Duration, traced bool, scratch string) (*output, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	printHost()
	start := time.Now()
	var rounds []roundOutcome
	for i := 0; i < minRounds || time.Since(start) < seconds; i++ {
		if ctx.Err() != nil {
			break
		}
		r := runChild(ctx, w, seed, traced && i%2 == 1, scratch)
		rounds = append(rounds, r)
		if r.exitErr != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, i, r.exitErr)
		}
		fmt.Printf("round %d%s: setup %.3fs, wall %s, peak %.0f MB, %d/%d ops failed, digest %s\n",
			i, tracedTag(r.traced), r.setupS, fmtList(passWalls(r.res)), r.peakMB,
			r.res.Failed, r.res.Attempted, r.res.Digest)
	}
	return summarize(w, rounds, traced), nil
}

func tracedTag(t bool) string {
	if t {
		return " (traced)"
	}
	return ""
}

func passWalls(r *roundResult) []float64 {
	var out []float64
	for _, p := range r.Passes {
		out = append(out, p.WallS)
	}
	return out
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3fs", x)
	}
	return strings.Join(parts, " ")
}

// summarize folds the rounds into the final line. End-to-end metrics
// come from untraced rounds only; per-layer metrics from traced ones.
func summarize(w workloadDef, rounds []roundOutcome, traced bool) *output {
	out := &output{Correct: true, Metrics: map[string]metric{}}
	digest := ""
	phases := map[string][]float64{}
	var setup, walls, cpus, rate, peak, ops []float64
	var tracedWalls []float64
	layers := map[string][]float64{}
	for i, r := range rounds {
		res := r.res
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for _, c := range res.Checks {
			out.Correct = false
			fmt.Printf("CHECK FAILED (round %d): %s\n", i, c)
		}
		if digest == "" {
			digest = res.Digest
		} else if res.Digest != digest {
			out.Correct = false
			fmt.Printf("CHECK FAILED (round %d): simulated-statistics digest %s differs from round 0's %s\n", i, res.Digest, digest)
		}
		for k, v := range res.Phases {
			phases[k] = append(phases[k], v)
		}
		if r.traced {
			tracedWalls = append(tracedWalls, passWalls(res)...)
			for k, v := range res.Layers {
				layers[k] = append(layers[k], v)
			}
			printSpans(i, res)
			continue
		}
		setup = append(setup, r.setupS)
		peak = append(peak, r.peakMB)
		ops = append(ops, res.OpsMs...)
		for _, p := range res.Passes {
			walls = append(walls, p.WallS)
			cpus = append(cpus, p.CPUS)
			rate = append(rate, float64(p.Instructions)/p.SimS/1e6)
		}
	}
	fmt.Printf("workload %s: %d rounds, digest %s\n", w.name, len(rounds), digest)
	for _, k := range sortedKeys(phases) {
		fmt.Printf("  %-22s median %.4f over %d rounds\n", k, median(phases[k]), len(phases[k]))
	}
	if traced {
		tw, pw := median(tracedWalls), median(walls)
		overhead := (tw/pw - 1) * 100
		fmt.Printf("tracing overhead: traced pass wall %.3fs vs untraced %.3fs (%+.1f%%)\n", tw, pw, overhead)
		for _, m := range perLayerMetrics {
			v := 0.0
			if vals, ok := layers[m.name]; ok {
				v = median(vals)
			}
			out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
		out.Metrics["tracing.wall_s"] = metric{Value: tw, Unit: "s"}
		out.Metrics["tracing.overhead_pct"] = metric{Value: overhead, Unit: "%"}
		for _, k := range sortedKeys(layers) {
			if _, ok := out.Metrics[k]; !ok {
				fmt.Printf("  layer %-28s %.4f\n", k, median(layers[k]))
			}
		}
		return out
	}
	out.Metrics["setup_s"] = metric{Value: median(setup), Unit: "s"}
	out.Metrics["wall_s"] = metric{Value: median(walls), Unit: "s"}
	out.Metrics["cpu_s"] = metric{Value: median(cpus), Unit: "s"}
	out.Metrics["peak_rss_mb"] = metric{Value: median(peak), Unit: "MB"}
	out.Metrics["sim_minstr_per_s"] = metric{Value: median(rate), Unit: "Minstr/s"}
	out.Metrics["op_p50_ms"] = metric{Value: quantile(ops, 0.50), Unit: "ms"}
	out.Metrics["op_p90_ms"] = metric{Value: quantile(ops, 0.90), Unit: "ms"}
	fmt.Printf("operations timed: %d (%s)\n", len(ops), w.op)
	return out
}

func printSpans(round int, res *roundResult) {
	fmt.Printf("spans of round %d (written to %s):\n", round, res.SpanFile)
	for _, s := range res.Spans {
		fmt.Printf("  %-26s n=%-5d p50 %9.3fms  total %9.3fs  self %9.3fs\n", s.Name, s.Count, s.P50Ms, s.TotalS, s.SelfS)
	}
}

func printHost() {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("host: cpu %q, nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
