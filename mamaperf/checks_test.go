package main

import (
	"testing"

	"micromama/internal/experiment"
	"micromama/internal/sim"
	"micromama/internal/workload"
)

// testScale keeps the simulations behind these tests to a fraction of
// a second.
var testScale = experiment.Scale{Target: 20_000, MaxCyclesFactor: 12, MixCount: 1, Seed: 7, Step: 50}

func testMix(t *testing.T, names ...string) workload.Mix {
	t.Helper()
	m := workload.Mix{}
	for _, n := range names {
		s, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		m.Specs = append(m.Specs, s)
	}
	return m
}

// realMixResult runs one small mix through a runner and returns the
// result with its single-core baselines; every check accepts it.
func realMixResult(t *testing.T) (experiment.MixResult, []float64) {
	t.Helper()
	r := experiment.NewRunner(testScale)
	mix := testMix(t, "spec06.libquantum", "spec06.mcf")
	cfg := sim.DefaultConfig(2)
	mr, err := r.RunMix(mix, cfg, "bandit", experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var base []float64
	for _, s := range mix.Specs {
		base = append(base, r.BaselineIPC(s, cfg))
	}
	if err := checkSimResult(mr.Result, testScale.Target, testScale.MaxCycles(), cfg.Epoch); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	if err := checkMixResult(mr, base); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	return mr, base
}

// copyResult deep-copies the per-core slice so corruptions stay local.
func copyResult(r sim.Result) sim.Result {
	r.Cores = append([]sim.CoreResult(nil), r.Cores...)
	return r
}

func TestCheckSimResultRejectsCorruption(t *testing.T) {
	mr, _ := realMixResult(t)
	cfg := sim.DefaultConfig(2)
	cases := map[string]func(r *sim.Result){
		"L1D hits":       func(r *sim.Result) { r.Cores[0].L1D.Hits++ },
		"L2 misses":      func(r *sim.Result) { r.Cores[1].L2.Misses++ },
		"LLC accesses":   func(r *sim.Result) { r.LLC.Accesses++ },
		"useful > fills": func(r *sim.Result) { r.Cores[0].L2.PrefetchUseful = r.Cores[0].L2.PrefetchFills + 1 },
		"short of target": func(r *sim.Result) {
			r.Cores[0].Instructions = testScale.Target / 2
			r.Cores[0].IPC = float64(r.Cores[0].Instructions) / float64(r.Cores[0].Cycles)
		},
		"past cycle cap": func(r *sim.Result) { r.Cores[1].Cycles = 2 * testScale.MaxCycles() },
		"IPC":            func(r *sim.Result) { r.Cores[1].IPC *= 1.001 },
		"no cores":       func(r *sim.Result) { r.Cores = nil },
	}
	for name, corrupt := range cases {
		r := copyResult(mr.Result)
		corrupt(&r)
		if err := checkSimResult(r, testScale.Target, testScale.MaxCycles(), cfg.Epoch); err == nil {
			t.Errorf("%s: corrupted result accepted", name)
		}
	}
}

func TestCheckMixResultRejectsCorruption(t *testing.T) {
	mr, base := realMixResult(t)
	cases := map[string]func(m *experiment.MixResult, b []float64){
		"WS":       func(m *experiment.MixResult, _ []float64) { m.WS *= 1.0001 },
		"HS":       func(m *experiment.MixResult, _ []float64) { m.HS -= 1e-6 },
		"speedup":  func(m *experiment.MixResult, _ []float64) { m.Speedups[0] *= 1.01 },
		"baseline": func(_ *experiment.MixResult, b []float64) { b[1] *= 0.99 },
		"IPC":      func(m *experiment.MixResult, _ []float64) { m.Result.Cores[0].IPC *= 1.01 },
	}
	for name, corrupt := range cases {
		m := mr
		m.Result = copyResult(mr.Result)
		m.Speedups = append([]float64(nil), mr.Speedups...)
		b := append([]float64(nil), base...)
		corrupt(&m, b)
		if err := checkMixResult(m, b); err == nil {
			t.Errorf("%s: corrupted result accepted", name)
		}
	}
}

func TestCheckBaselineRejectsWrongBaseline(t *testing.T) {
	r := experiment.NewRunner(testScale)
	spec := testMix(t, "spec06.sphinx3").Specs[0]
	if err := checkBaseline(r, spec, testScale); err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}
	// A runner whose cached baseline came from another instruction
	// budget no longer matches the direct run.
	other := testScale
	other.Target = testScale.Target / 2
	if err := checkBaseline(experiment.NewRunner(other), spec, testScale); err == nil {
		t.Error("baseline from a different run accepted")
	}
}

func TestServiceChecksRejectCorruption(t *testing.T) {
	mr, _ := realMixResult(t)
	good := jobResultOf(mr)
	good.SimMs = 12
	if err := checkJobResult(good, 2); err != nil {
		t.Fatalf("valid job result rejected: %v", err)
	}
	if err := checkDirect(good, mr); err != nil {
		t.Fatalf("valid job result rejected: %v", err)
	}
	bad := good
	bad.WS += 1e-6
	if checkJobResult(bad, 2) == nil {
		t.Error("WS off Equation 2 accepted")
	}
	bad = good
	bad.HS *= 1.001
	if checkJobResult(bad, 2) == nil {
		t.Error("HS off Equation 6 accepted")
	}
	if checkJobResult(good, 4) == nil {
		t.Error("result with the wrong core count accepted")
	}
	bad = good
	bad.IPC = append([]float64(nil), good.IPC...)
	bad.IPC[1] *= 1.0001
	if checkDirect(bad, mr) == nil {
		t.Error("result that differs from the direct run accepted")
	}
	if sameJobResult(bad, good) {
		t.Error("cache-hit result that differs from the cold one accepted")
	}
	bad = good
	bad.SimMs += 5
	if !sameJobResult(bad, good) {
		t.Error("results differing only in wall-clock time were told apart")
	}
}

func TestCountChecksRejectCorruption(t *testing.T) {
	if err := checkTerminal(map[int]int{0: 1, 1: 1, 2: 1}, 3); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	for name, ev := range map[string]map[int]int{
		"duplicate": {0: 1, 1: 2, 2: 1},
		"missing":   {0: 1, 2: 1},
		"stray":     {0: 1, 1: 1, 3: 1},
	} {
		if checkTerminal(ev, 3) == nil {
			t.Errorf("%s terminal events accepted", name)
		}
	}
	if checkCount("cold sweep", 7, 8) == nil || checkCount("warm sweep", 1, 0) == nil {
		t.Error("wrong simulation count accepted")
	}
	if checkCount("warm sweep", 0, 0) != nil {
		t.Error("right simulation count rejected")
	}
	mr, _ := realMixResult(t)
	r := copyResult(mr.Result)
	if checkSame("re-run", r, mr.Result) != nil {
		t.Fatal("identical results told apart")
	}
	r.Cores[0].L2.Hits++
	if checkSame("re-run", r, mr.Result) == nil {
		t.Error("re-run that differs by one L2 hit accepted")
	}
}
