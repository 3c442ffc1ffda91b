package main

import (
	"context"
	"testing"
	"time"
)

// reducedSize runs every workload's full code path, checks included,
// in a few seconds.
var reducedSize = size{
	scale:           testScale,
	fig9Cores:       []int{1, 4},
	fig9Controllers: []string{"bandit", "mumama"},

	simMixes:       1,
	simPasses:      1,
	simControllers: []string{"bandit", "mumama"},

	sweepMixes:       2,
	sweepCores:       2,
	sweepControllers: []string{"no", "bandit"},
	coldJobs:         2,
	coldJobCores:     2,
	hitsPerClient:    20,
	directSamples:    1,
}

func runReduced(t *testing.T, w workloadDef, seed uint64, traced bool) *roundResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	readies := 0
	env := &roundEnv{seed: seed, size: reducedSize, scratch: t.TempDir(), ready: func() { readies++ }}
	if traced {
		env.tr = newTracer()
		prof, err := startCPUProfile()
		if err != nil {
			t.Fatal(err)
		}
		env.stopProfile = func() {
			samples, err := prof.stop()
			if err != nil {
				t.Errorf("profile: %v", err)
			}
			env.layers = map[string]float64{}
			for layer, n := range samples {
				env.layers[layer+".cpu_samples"] = float64(n)
			}
		}
	}
	res, err := w.run(ctx, env)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if readies != 1 {
		t.Errorf("%s: ready called %d times, want once", w.name, readies)
	}
	for _, c := range res.Checks {
		t.Errorf("%s seed %d: check failed: %s", w.name, seed, c)
	}
	if res.Attempted == 0 || res.Failed != 0 {
		t.Errorf("%s seed %d: %d of %d operations failed", w.name, seed, res.Failed, res.Attempted)
	}
	if len(res.Passes) == 0 || len(res.OpsMs) == 0 || res.Digest == "" {
		t.Errorf("%s seed %d: empty measurement %+v", w.name, seed, res)
	}
	for _, p := range res.Passes {
		if p.WallS <= 0 || p.Instructions == 0 || p.SimS <= 0 {
			t.Errorf("%s seed %d: pass %+v measured nothing", w.name, seed, p)
		}
	}
	return res
}

// TestWorkloadsReduced runs every workload at reduced size on two
// seeds with all checks on, then once traced: the traced round must
// fill the per-layer table and reproduce the untraced digest.
func TestWorkloadsReduced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first := runReduced(t, w, 1, false)
			runReduced(t, w, 2, false)
			traced := runReduced(t, w, 1, true)
			if traced.Digest != first.Digest {
				t.Errorf("traced digest %s, untraced %s", traced.Digest, first.Digest)
			}
			for _, name := range []string{"sim.instructions", "trace.materializations", "runtime.alloc_mb"} {
				if traced.Layers[name] <= 0 {
					t.Errorf("traced round has no %s", name)
				}
			}
		})
	}
}

// spin burns CPU in this package so a profile has frames to attribute.
func spin(d time.Duration) (n uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			n += uint64(i) * n
		}
	}
	return n
}

func TestProfileAttributesLeafFrames(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	spin(400 * time.Millisecond)
	samples, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	if samples["bench"] < 5 {
		t.Errorf("400ms of CPU in package main gave %d samples to the bench layer: %v", samples["bench"], samples)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"micromama/internal/cache.(*Cache).Lookup", "/src/internal/cache/cache.go", "cache"},
		{"micromama/internal/server.(*clusterState).tryRemote", "/src/internal/server/cluster.go", "cluster"},
		{"micromama/internal/server.(*Server).submit", "/src/internal/server/server.go", "server"},
		{"micromama/internal/bandit.(*DUCB).Select", "", "core"},
		{"micromama/internal/workload.init.func1", "", "trace"},
		{"crypto/internal/fips140/sha256.blockAVX2", "", "hash"},
		{"encoding/json.(*decodeState).object", "", "json"},
		{"net/http.(*conn).serve", "", "http"},
		{"runtime.mallocgc", "", "runtime"},
		{"main.runPhases.func2", "", "bench"},
		{"syscall.Syscall6", "", "other"},
	} {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}
