package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"micromama/internal/experiment"
	"micromama/internal/telemetry"
	"micromama/internal/trace"
)

// workloadDef is one named set of inputs the benchmark runs.
type workloadDef struct {
	name string
	// op names the operation whose latency op_p50_ms/op_p90_ms report.
	op  string
	run func(ctx context.Context, env *roundEnv) (*roundResult, error)
}

var workloads = []workloadDef{
	{name: "fig9", op: "one Runner.RunMixes call: one controller at one core count over the scale's mixes", run: runFig9},
	{name: "sim-8c", op: "one 8-core simulation: sim.New + System.Run", run: runSim8c},
	{name: "service", op: "one cache-hit job: POST /v1/jobs + GET /v1/jobs/{id}/result", run: runService},
	{name: "cluster", op: "one cache-hit job: POST /v1/jobs + GET /v1/jobs/{id}/result", run: runCluster},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// size is how much work one round does. fullSize is what the
// benchmark measures; the self-test runs every workload at
// reducedSize with every check on.
type size struct {
	scale experiment.Scale

	fig9Cores       []int
	fig9Controllers []string

	simMixes       int
	simPasses      int
	simControllers []string

	sweepMixes       int
	sweepCores       int
	sweepControllers []string
	coldJobs         int
	coldJobCores     int
	hitsPerClient    int
	directSamples    int
}

var fullSize = size{
	scale:           experiment.ScaleTiny,
	fig9Cores:       []int{1, 4, 8},
	fig9Controllers: []string{"bandit", "ip_stride", "bingo", "pythia", "mumama"},

	simMixes:       2,
	simPasses:      3,
	simControllers: []string{"bandit", "mumama"},

	sweepMixes:       4,
	sweepCores:       4,
	sweepControllers: []string{"no", "bandit", "mumama"},
	coldJobs:         4,
	coldJobCores:     2,
	hitsPerClient:    2500,
	directSamples:    2,
}

// roundEnv is what a workload round gets from the harness.
type roundEnv struct {
	seed    uint64
	size    size
	scratch string
	// ready is called once set-up is over and timing starts.
	ready func()
	// tr is nil on untraced rounds; its methods are nil-safe.
	tr *tracer
	// stopProfile, when set, ends the CPU profile and folds it into
	// layers; rounds call it right after their timed part, before the
	// checks run.
	stopProfile func()
	layers      map[string]float64
	checks      []string
}

func (e *roundEnv) checkf(format string, args ...any) {
	if len(e.checks) < 50 {
		e.checks = append(e.checks, fmt.Sprintf(format, args...))
	}
}

func (e *roundEnv) check(err error) {
	if err != nil {
		e.checkf("%v", err)
	}
}

// endTimed closes the timed part of a round: it stops the CPU profile
// and snapshots the process-wide counters into the per-layer table.
func (e *roundEnv) endTimed() {
	if e.stopProfile == nil {
		return
	}
	e.stopProfile()
	addProcessLayers(e.layers)
}

// pass is one timed pass over the round's operation list.
type pass struct {
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	// Instructions is every instruction the simulator retired during
	// the pass (past-target ones included), and SimS the host seconds
	// spent simulating them.
	Instructions uint64  `json:"instructions"`
	SimS         float64 `json:"sim_s"`
}

// roundResult is what a child round reports to the parent.
type roundResult struct {
	Passes    []pass             `json:"passes"`
	OpsMs     []float64          `json:"ops_ms"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Checks    []string           `json:"checks,omitempty"`
	Phases    map[string]float64 `json:"phases,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []spanSummary      `json:"spans,omitempty"`
	SpanFile  string             `json:"span_file,omitempty"`
}

func (e *roundEnv) finish(res *roundResult) *roundResult {
	res.Checks = append(res.Checks, e.checks...)
	res.Layers = e.layers
	return res
}

// cpuNow is the process's user+sys CPU time in seconds.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// promValues parses Prometheus text exposition into series → value.
// Series keys are rendered exactly as the registry writes them, e.g.
// `mama_sim_prefetches_issued_total{level="l2"}`.
func promValues(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[i+1:], &v); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// processCounters reads the process-wide telemetry registry (the
// simulator, trace pool and experiment-runner series).
func processCounters() map[string]float64 {
	var b strings.Builder
	_ = telemetry.Default().WritePrometheus(&b) // a strings.Builder write cannot fail
	return promValues(b.String())
}

func simInstructions() uint64 {
	return uint64(processCounters()["mama_sim_instructions_total"])
}

// addProcessLayers copies the process-wide counters of the simulator,
// trace pool, runner caches and Go runtime into the per-layer table.
func addProcessLayers(l map[string]float64) {
	c := processCounters()
	l["sim.instructions"] = c["mama_sim_instructions_total"]
	l["sim.epochs"] = c["mama_sim_epochs_total"]
	l["sim.parallel_epochs"] = c["mama_sim_parallel_epochs_total"]
	l["prefetch.l2_issued"] = c[`mama_sim_prefetches_issued_total{level="l2"}`]
	l["prefetch.useful"] = c["mama_sim_prefetches_useful_total"]
	l["prefetch.dropped"] = c["mama_sim_prefetches_dropped_total"]
	if issued := l["prefetch.l2_issued"]; issued > 0 {
		l["prefetch.accuracy"] = l["prefetch.useful"] / issued
	}
	l["core.jav_joint_steps"] = c[`mama_sim_jav_steps_total{source="joint"}`]
	l["core.jav_local_steps"] = c[`mama_sim_jav_steps_total{source="local"}`]
	for _, name := range []string{"cache_hits", "cache_misses", "singleflight_merges"} {
		l["experiment."+name] = c[`mama_experiment_`+name+`_total{cache="baseline"}`] +
			c[`mama_experiment_`+name+`_total{cache="profile"}`]
	}
	ps := trace.DefaultPool().Stats()
	l["trace.pool_mb"] = float64(ps.UsedBytes) / (1 << 20)
	l["trace.materializations"] = float64(ps.Materializations)
	l["trace.tail_streams"] = float64(ps.TailStreams)

	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		l["runtime.gc_cpu_s"] = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		l["runtime.alloc_mb"] = float64(samples[1].Value.Uint64()) / (1 << 20)
	}
}

// digest is a short SHA-256 over the canonical JSON of every simulated
// statistic a round produced. Equal seeds must give equal digests in
// every round, traced or not.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
