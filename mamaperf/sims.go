package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"micromama/internal/experiment"
	"micromama/internal/sim"
	"micromama/internal/trace"
	"micromama/internal/workload"
	"micromama/internal/xrand"
)

// placeMixes reorders each mix's traces over its cores in an order
// drawn from rng. A trace's core decides its address-space namespace
// and its place in the shared LLC and DRAM arbitration, so every seed
// simulates different inputs, while the set of traces in each mix,
// and with it the amount of simulated work, stays that of the scale's
// own sampled mixes. Drawing the traces themselves from the seed would
// make the timings depend on which traces a seed happened to pick.
func placeMixes(mixes []workload.Mix, rng *xrand.RNG) []workload.Mix {
	out := make([]workload.Mix, len(mixes))
	for i, m := range mixes {
		out[i].ID = m.ID
		for _, p := range rng.Perm(len(m.Specs)) {
			out[i].Specs = append(out[i].Specs, m.Specs[p])
		}
	}
	return out
}

// fig9Cell is one RunMixes call of Figure 9 and its results.
type fig9Cell struct {
	Cores      int
	Controller string
	Results    []experiment.MixResult
}

// runFig9 is the researcher's path: Figure 9 at tiny scale through
// experiment.Runner, with the calls Runner.Fig9Throughput makes (one
// RunMixes per core count and controller, Bandit first) on the mixes
// mamabench samples, placed on cores by the seed, with GOMAXPROCS
// workers, serial simulation and an empty trace pool. The runner's
// baseline and profile caches, trace generation and slab growth do
// most of the work.
func runFig9(ctx context.Context, env *roundEnv) (*roundResult, error) {
	sz := env.size
	r := experiment.NewRunner(sz.scale)
	r.BaseCtx = ctx
	r.SimParallelism = 0
	rng := xrand.New(env.seed)
	mixes := map[int][]workload.Mix{}
	for _, n := range sz.fig9Cores {
		mixes[n] = placeMixes(r.MixesFor(n), &rng)
	}
	env.ready()

	res := &roundResult{Phases: map[string]float64{}}
	root := env.tr.start("fig9", 0, "")
	start, cpu0, instr0 := time.Now(), cpuNow(), simInstructions()
	var cells []fig9Cell
	for _, n := range sz.fig9Cores {
		for _, key := range sz.fig9Controllers {
			t0 := time.Now()
			id := env.tr.start("experiment.RunMixes", root, fmt.Sprintf("%dc/%s", n, key))
			out, err := r.RunMixes(mixes[n], sim.DefaultConfig(n), key, experiment.Options{})
			env.tr.end(id)
			res.OpsMs = append(res.OpsMs, ms(time.Since(t0)))
			res.Attempted += len(mixes[n])
			if err != nil {
				res.Failed += len(mixes[n])
				env.checkf("RunMixes %dc/%s: %v", n, key, err)
				continue
			}
			cells = append(cells, fig9Cell{Cores: n, Controller: key, Results: out})
		}
	}
	wall := time.Since(start).Seconds()
	env.tr.end(root)
	res.Passes = []pass{{WallS: wall, CPUS: cpuNow() - cpu0, Instructions: simInstructions() - instr0, SimS: wall}}
	if env.stopProfile != nil {
		env.endTimed()
		addMixLayers(env.layers, cells)
	}

	// Untimed checks.
	for _, c := range cells {
		cfg := sim.DefaultConfig(c.Cores)
		for _, mr := range c.Results {
			env.check(checkSimResult(mr.Result, sz.scale.Target, sz.scale.MaxCycles(), cfg.Epoch))
			base := make([]float64, len(mr.Mix.Specs))
			for i, sp := range mr.Mix.Specs {
				base[i] = r.BaselineIPC(sp, cfg)
			}
			env.check(checkMixResult(mr, base))
		}
	}
	sample := mixes[sz.fig9Cores[len(sz.fig9Cores)-1]][0].Specs
	env.check(checkBaseline(r, sample[rng.Intn(len(sample))], sz.scale))
	for _, n := range []int{4, 8} {
		if ws, ok := normWS(cells, n, "mumama"); ok {
			res.Phases[fmt.Sprintf("mumama_vs_bandit_ws_%dc_pct", n)] = ws
		}
	}
	res.Digest = digest(cells)
	return env.finish(res), nil
}

// checkBaseline checks the runner's single-core baseline IPC for one
// trace against a no-prefetch simulation built directly with sim.New
// on a fresh generator (not the shared trace pool).
func checkBaseline(r *experiment.Runner, spec workload.Spec, scale experiment.Scale) error {
	cfg := sim.DefaultConfig(1)
	sys, err := sim.New(cfg, []trace.Reader{spec.New()}, sim.NoPrefetchController())
	if err != nil {
		return err
	}
	direct := sys.Run(scale.Target, scale.MaxCycles()).Cores[0].IPC
	if got := r.BaselineIPC(spec, cfg); got != direct {
		return fmt.Errorf("runner baseline IPC of %s is %v, a direct single-core no-prefetch run gives %v", spec.Name, got, direct)
	}
	return nil
}

// normWS is mean WS of key over mean WS of Bandit at n cores, minus
// one, in percent: the quantity Figure 9 plots.
func normWS(cells []fig9Cell, n int, key string) (float64, bool) {
	mean := map[string]float64{}
	for _, c := range cells {
		if c.Cores == n {
			mean[c.Controller] = experiment.MeanWS(c.Results)
		}
	}
	b, k := mean["bandit"], mean[key]
	if b == 0 || k == 0 {
		return 0, false
	}
	return (k/b - 1) * 100, true
}

// addMixLayers sums the cache and DRAM counters of runner results.
func addMixLayers(l map[string]float64, cells []fig9Cell) {
	var results []sim.Result
	for _, c := range cells {
		for _, mr := range c.Results {
			results = append(results, mr.Result)
		}
	}
	addSimLayers(l, results)
}

// addSimLayers sums the cache and DRAM counters of simulation results
// into the per-layer table.
func addSimLayers(l map[string]float64, results []sim.Result) {
	var rowHits, rowAll float64
	for _, r := range results {
		for _, c := range r.Cores {
			l["cache.l1d_accesses"] += float64(c.L1D.Accesses)
			l["cache.l2_accesses"] += float64(c.L2.Accesses)
		}
		l["cache.llc_accesses"] += float64(r.LLC.Accesses)
		l["cache.llc_misses"] += float64(r.LLC.Misses)
		l["dram.requests"] += float64(r.DRAM.Reads + r.DRAM.Writes)
		l["dram.queue_delay_cycles"] += float64(r.DRAM.QueueDelay)
		rowHits += float64(r.DRAM.RowHits)
		rowAll += float64(r.DRAM.RowHits + r.DRAM.RowMisses)
	}
	if rowAll > 0 {
		l["dram.row_hit_ratio"] = rowHits / rowAll
	}
}

// runSim8c isolates the per-instruction hot path: 8-core mixes under
// Bandit and µMama, each one fresh sim.New + System.Run with the
// parallelism mamasim uses by default (GOMAXPROCS). An untimed pass
// over the same list materialises the traces first and counts as
// set-up, so the timed passes exclude trace generation. Bandit runs on
// the parallel epoch engine; µMama's arbiter makes it fall back to
// serial.
func runSim8c(ctx context.Context, env *roundEnv) (*roundResult, error) {
	sz := env.size
	rng := xrand.New(env.seed)
	mixes := placeMixes(workload.Mixes(8, sz.simMixes, sz.scale.Seed), &rng)
	par := runtime.GOMAXPROCS(0)
	res := &roundResult{}

	runOne := func(m workload.Mix, key string, parallelism int, parent int) (sim.Result, error) {
		ctrl, err := experiment.MakeController(key, experiment.Options{Step: sz.scale.Step})
		if err != nil {
			return sim.Result{}, err
		}
		cfg := sim.DefaultConfig(8)
		cfg.Parallelism = parallelism
		id := env.tr.start("sim.Run", parent, m.Name()+"/"+key)
		defer env.tr.end(id)
		sys, err := sim.New(cfg, m.Traces(), ctrl)
		if err != nil {
			return sim.Result{}, err
		}
		return sys.RunContext(ctx, sz.scale.Target, sz.scale.MaxCycles())
	}
	runPass := func(timed bool) []sim.Result {
		parent := env.tr.start("sim8c.pass", 0, "")
		defer env.tr.end(parent)
		var out []sim.Result
		for _, m := range mixes {
			for _, key := range sz.simControllers {
				t0 := time.Now()
				r, err := runOne(m, key, par, parent)
				if timed {
					res.OpsMs = append(res.OpsMs, ms(time.Since(t0)))
					res.Attempted++
					if err != nil {
						res.Failed++
					}
				}
				if err != nil {
					env.checkf("%s/%s: %v", m.Name(), key, err)
				}
				out = append(out, r)
			}
		}
		return out
	}

	setup := runPass(false)
	env.ready()
	for p := 0; p < sz.simPasses; p++ {
		start, cpu0, instr0 := time.Now(), cpuNow(), simInstructions()
		got := runPass(true)
		wall := time.Since(start).Seconds()
		res.Passes = append(res.Passes, pass{WallS: wall, CPUS: cpuNow() - cpu0, Instructions: simInstructions() - instr0, SimS: wall})
		for i := range got {
			env.check(checkSame(fmt.Sprintf("timed pass %d, simulation %d", p, i), got[i], setup[i]))
		}
	}
	if env.stopProfile != nil {
		env.endTimed()
		addSimLayers(env.layers, setup)
	}

	// Untimed checks: every result's invariants, then one simulation
	// per controller re-run serially, which must be bit-identical.
	for _, r := range setup {
		env.check(checkSimResult(r, sz.scale.Target, sz.scale.MaxCycles(), sim.DefaultConfig(8).Epoch))
	}
	pick := rng.Intn(len(mixes))
	for k, key := range sz.simControllers {
		serial, err := runOne(mixes[pick], key, 0, 0)
		if err != nil {
			env.checkf("serial re-run %s: %v", key, err)
			continue
		}
		env.check(checkSame(fmt.Sprintf("%s/%s serial re-run vs parallelism %d", mixes[pick].Name(), key, par),
			serial, setup[pick*len(sz.simControllers)+k]))
	}
	res.Digest = digest(setup)
	return env.finish(res), nil
}
