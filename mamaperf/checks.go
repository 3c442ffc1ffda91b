package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"micromama/internal/cache"
	"micromama/internal/experiment"
	"micromama/internal/server"
	"micromama/internal/sim"
)

// The checks compare outputs with properties the method must have or
// with values recomputed apart from the code that produced them, never
// with a stored copy of an earlier output.

// capSlack bounds how far past the cycle cap a core's clock may read:
// the run stops at the first epoch boundary past the cap, and a core's
// local clock can already be ahead of that boundary by the latency of
// the instruction it was retiring (up to about 3.7k cycles on a 4.8M
// cap in Figure 9 at tiny scale), so 1% of the cap.
const capSlack = 100

// checkSimResult checks one simulation: every cache level's demand
// accesses split into hits and misses, no prefetch is useful without
// having been filled, every core reached the instruction target or ran
// until the cycle cap stopped it, and each core's IPC is its
// instructions over its cycles.
func checkSimResult(res sim.Result, target, maxCycles, epoch uint64) error {
	levels := func(name string, st cache.Stats) error {
		if st.Hits+st.Misses != st.Accesses {
			return fmt.Errorf("%s: hits %d + misses %d != accesses %d", name, st.Hits, st.Misses, st.Accesses)
		}
		if st.PrefetchUseful > st.PrefetchFills {
			return fmt.Errorf("%s: %d useful prefetches > %d prefetch fills", name, st.PrefetchUseful, st.PrefetchFills)
		}
		return nil
	}
	if err := levels("LLC", res.LLC); err != nil {
		return err
	}
	if len(res.Cores) == 0 {
		return fmt.Errorf("result has no cores")
	}
	for i, c := range res.Cores {
		if err := levels(fmt.Sprintf("core %d L1D", i), c.L1D); err != nil {
			return err
		}
		if err := levels(fmt.Sprintf("core %d L2", i), c.L2); err != nil {
			return err
		}
		if c.Instructions < target && (maxCycles == 0 || c.Cycles+epoch < maxCycles) {
			return fmt.Errorf("core %d stopped at %d instructions, %d cycles: neither the target %d nor the cycle cap %d",
				i, c.Instructions, c.Cycles, target, maxCycles)
		}
		if maxCycles > 0 && c.Cycles > maxCycles+maxCycles/capSlack {
			return fmt.Errorf("core %d ran to cycle %d, past the cap %d", i, c.Cycles, maxCycles)
		}
		if c.Cycles == 0 || c.IPC != float64(c.Instructions)/float64(c.Cycles) {
			return fmt.Errorf("core %d: IPC %v != %d instructions / %d cycles", i, c.IPC, c.Instructions, c.Cycles)
		}
	}
	return nil
}

// paperWS and paperHS are the paper's Equations 2 and 6 over per-core
// speedups S_i = IPC_i(multicore) / IPC_i(alone, no L2 prefetching):
// WS = Σ S_i and HS = N / Σ 1/S_i.
func paperWS(s []float64) float64 {
	var t float64
	for _, x := range s {
		t += x
	}
	return t
}

func paperHS(s []float64) float64 {
	var inv float64
	for _, x := range s {
		inv += 1 / x
	}
	return float64(len(s)) / inv
}

func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// checkMixResult recomputes a runner result's speedups, WS and HS from
// its per-core IPCs and the single-core baselines.
func checkMixResult(mr experiment.MixResult, baselines []float64) error {
	if len(baselines) != len(mr.Result.Cores) || len(mr.Speedups) != len(baselines) {
		return fmt.Errorf("%s: %d cores, %d speedups, %d baselines", mr.Mix.Name(), len(mr.Result.Cores), len(mr.Speedups), len(baselines))
	}
	s := make([]float64, len(baselines))
	for i, c := range mr.Result.Cores {
		if baselines[i] <= 0 {
			return fmt.Errorf("%s: core %d has baseline IPC %v", mr.Mix.Name(), i, baselines[i])
		}
		s[i] = c.IPC / baselines[i]
		if !near(s[i], mr.Speedups[i]) {
			return fmt.Errorf("%s: core %d speedup %v, recomputed %v", mr.Mix.Name(), i, mr.Speedups[i], s[i])
		}
	}
	if ws := paperWS(s); !near(ws, mr.WS) {
		return fmt.Errorf("%s/%s: WS %v, Equation 2 gives %v", mr.Mix.Name(), mr.Controller, mr.WS, ws)
	}
	if hs := paperHS(s); !near(hs, mr.HS) {
		return fmt.Errorf("%s/%s: HS %v, Equation 6 gives %v", mr.Mix.Name(), mr.Controller, mr.HS, hs)
	}
	return nil
}

// checkJobResult recomputes a service result's WS and HS from the
// speedups it carries.
func checkJobResult(r server.JobResult, cores int) error {
	if len(r.Speedups) != cores || len(r.IPC) != cores {
		return fmt.Errorf("%s/%s: %d speedups and %d IPCs for %d cores", r.Mix, r.Controller, len(r.Speedups), len(r.IPC), cores)
	}
	for i, s := range r.Speedups {
		if !(s > 0) {
			return fmt.Errorf("%s/%s: core %d speedup %v", r.Mix, r.Controller, i, s)
		}
	}
	if ws := paperWS(r.Speedups); !near(ws, r.WS) {
		return fmt.Errorf("%s/%s: WS %v, Equation 2 gives %v", r.Mix, r.Controller, r.WS, ws)
	}
	if hs := paperHS(r.Speedups); !near(hs, r.HS) {
		return fmt.Errorf("%s/%s: HS %v, Equation 6 gives %v", r.Mix, r.Controller, r.HS, hs)
	}
	return nil
}

// sameJobResult compares two service results, ignoring the wall-clock
// simulation time, which a cache hit reports as the cold run did.
func sameJobResult(a, b server.JobResult) bool {
	a.SimMs, b.SimMs = 0, 0
	return reflect.DeepEqual(a, b)
}

// jobResultOf renders a runner result the way the service reports it.
func jobResultOf(mr experiment.MixResult) server.JobResult {
	w := server.JobResult{
		Mix: mr.Mix.Name(), Controller: mr.Controller,
		WS: mr.WS, HS: mr.HS, GM: mr.GM, Unfairness: mr.Unfairness,
		Speedups: mr.Speedups, Prefetches: mr.Result.TotalPrefetches(),
	}
	for _, c := range mr.Result.Cores {
		w.IPC = append(w.IPC, c.IPC)
		w.L2MPKI = append(w.L2MPKI, c.L2MPKI())
	}
	return w
}

// checkDirect compares a service result with the same spec run
// directly through experiment.Runner.
func checkDirect(got server.JobResult, want experiment.MixResult) error {
	if w := jobResultOf(want); !sameJobResult(got, w) {
		g, _ := json.Marshal(got)
		d, _ := json.Marshal(w)
		return fmt.Errorf("service result %s differs from the direct Runner run %s", g, d)
	}
	return nil
}

// checkSame requires two runs of one simulation to be bit-identical.
func checkSame(what string, got, want sim.Result) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: result differs from the reference run", what)
	}
	return nil
}

// checkCount compares a number of simulations the service ran with the
// number the phase must cost.
func checkCount(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s ran %d simulations across all nodes, want %d", what, got, want)
	}
	return nil
}

// checkTerminal checks that a sweep's stream delivered exactly one
// terminal event per cell.
func checkTerminal(events map[int]int, cells int) error {
	if len(events) != cells {
		return fmt.Errorf("stream has terminal events for %d cells, want %d", len(events), cells)
	}
	for cell, n := range events {
		if cell < 0 || cell >= cells || n != 1 {
			return fmt.Errorf("cell %d has %d terminal events, want exactly 1", cell, n)
		}
	}
	return nil
}
