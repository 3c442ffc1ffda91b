package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"micromama/internal/client"
	"micromama/internal/cluster"
	"micromama/internal/experiment"
	"micromama/internal/server"
	"micromama/internal/sim"
	"micromama/internal/sweep"
	"micromama/internal/workload"
	"micromama/internal/xrand"
)

// node is one in-process mamaserved serving HTTP on loopback.
type node struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan struct{} // closed when Serve returns
}

func startNode(ln net.Listener, cfg server.Config) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &node{srv: srv, hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(n.served)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return n, nil
}

func stopNodes(nodes []*node) {
	for _, n := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := n.hs.Shutdown(ctx); err != nil {
			n.hs.Close()
		}
		cancel()
		<-n.served
	}
	for _, n := range nodes {
		n.srv.Close()
	}
}

// serverConfig is mamaserved's default configuration with its own
// result-cache directory: GOMAXPROCS workers and the automatic
// per-simulation parallelism, which resolves to serial at that width.
func serverConfig(dir string, cl *cluster.Cluster) server.Config {
	return server.Config{CacheDir: dir, SimParallelism: -1, Cluster: cl}
}

// runService drives one standalone mamaserved through its HTTP API.
// Writes (simulations, result-cache and persist writes) run beside
// reads (dedupe, cache hits, streaming); no cluster code runs.
func runService(ctx context.Context, env *roundEnv) (*roundResult, error) {
	dir, err := os.MkdirTemp(env.scratch, "service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n, err := startNode(ln, serverConfig(dir, nil))
	if err != nil {
		return nil, err
	}
	nodes := []*node{n}
	defer stopNodes(nodes)
	if err := waitReady(ctx, nodes, nil); err != nil {
		return nil, err
	}
	env.ready()
	return runPhases(ctx, env, nodes, nil)
}

// runCluster drives three in-process nodes joined by gossip, each with
// its own result-cache directory, through the same phases as runService.
// It is the only workload that runs routing, cross-shard cache fetches,
// remote dispatch, stealing and gossip.
func runCluster(ctx context.Context, env *roundEnv) (*roundResult, error) {
	const size = 3
	lns := make([]net.Listener, size)
	urls := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	var nodes []*node
	defer func() { stopNodes(nodes) }()
	for i := range lns {
		dir, err := os.MkdirTemp(env.scratch, "cluster-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cl, err := cluster.New(urls[i], urls, cluster.Options{})
		if err != nil {
			return nil, err
		}
		// mamaserved's defaults: gossip every second, every bootstrap
		// peer doubles as a seed.
		cl.EnableGossip(cluster.GossipOptions{Interval: time.Second, Seeds: urls})
		n, err := startNode(lns[i], serverConfig(dir, cl))
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	ring, err := cluster.New(urls[0], urls, cluster.Options{})
	if err != nil {
		return nil, err
	}
	if err := waitReady(ctx, nodes, ring); err != nil {
		return nil, err
	}
	env.ready()
	return runPhases(ctx, env, nodes, ring)
}

// nodeStats is the part of /v1/stats the benchmark reads.
type nodeStats struct {
	Simulations uint64               `json:"simulations"`
	CacheHits   uint64               `json:"cache_hits"`
	DedupHits   uint64               `json:"dedup_hits"`
	Sweeps      sweep.Counts         `json:"sweeps"`
	Cluster     *server.ClusterStats `json:"cluster"`
}

// waitReady polls until every node answers /v1/stats and, for a
// cluster, all of them see every member alive under one ring hash.
func waitReady(ctx context.Context, nodes []*node, ring *cluster.Cluster) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := true
		var hash uint64
		for i, n := range nodes {
			var st nodeStats
			if err := getJSON(ctx, n.url+"/v1/stats", &st); err != nil {
				ok = false
				break
			}
			if ring == nil {
				continue
			}
			alive := 0
			for _, m := range st.Cluster.Members {
				if m.State == cluster.StateAlive {
					alive++
				}
			}
			if alive != len(nodes) || (i > 0 && st.Cluster.RingHash != hash) {
				ok = false
				break
			}
			hash = st.Cluster.RingHash
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("nodes did not become ready within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

var plainHTTP = &http.Client{Timeout: 60 * time.Second}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := plainHTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// clusterTotals sums every node's /v1/stats and /metrics into the
// per-layer table.
func clusterTotals(ctx context.Context, nodes []*node, l map[string]float64) error {
	for _, n := range nodes {
		var st nodeStats
		if err := getJSON(ctx, n.url+"/v1/stats", &st); err != nil {
			return err
		}
		l["server.simulations"] += float64(st.Simulations)
		l["server.result_cache_hits"] += float64(st.CacheHits)
		l["server.dedup_hits"] += float64(st.DedupHits)
		l["sweep.cells_deduped"] += float64(st.Sweeps.CellsDeduped)
		if c := st.Cluster; c != nil {
			l["cluster.proxied"] += float64(c.Proxied)
			l["cluster.remote_cells"] += float64(c.RemoteCells)
			l["cluster.remote_cache_hits"] += float64(c.RemoteCacheHits)
			l["cluster.remote_cache_misses"] += float64(c.RemoteCacheMisses)
			l["cluster.steals_in"] += float64(c.StolenFromPeers)
			l["cluster.writebacks"] += float64(c.Writebacks)
			l["cluster.degraded_local"] += float64(c.DegradedLocal)
			l["cluster.suspects"] += float64(c.Suspicions)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/metrics", nil)
		if err != nil {
			return err
		}
		resp, err := plainHTTP.Do(req)
		if err != nil {
			return err
		}
		var b strings.Builder
		_, err = bufio.NewReader(resp.Body).WriteTo(&b)
		resp.Body.Close()
		if err != nil {
			return err
		}
		m := promValues(b.String())
		l["server.persist_writes"] += m["mama_server_cache_persist_writes_total"]
		l["sweep.persist_writes"] += m["mama_server_sweep_persist_writes_total"]
		l["server.job_wait_s"] += m["mama_server_job_wait_seconds_sum"]
		l["server.job_run_s"] += m["mama_server_job_run_seconds_sum"]
	}
	return nil
}

func totalSims(ctx context.Context, nodes []*node) (uint64, error) {
	var t uint64
	for _, n := range nodes {
		var st nodeStats
		if err := getJSON(ctx, n.url+"/v1/stats", &st); err != nil {
			return 0, err
		}
		t += st.Simulations
	}
	return t, nil
}

// caller issues the benchmark's workload requests and counts them: a
// transport error or any status outside 2xx, 429 and 503 included, is
// a failed operation. Clients never retry, so a refusal shows.
type caller struct {
	mu        sync.Mutex
	attempted int
	failed    int
	tr        *tracer
}

func (c *caller) count(ok bool) {
	c.mu.Lock()
	c.attempted++
	if !ok {
		c.failed++
	}
	c.mu.Unlock()
}

func newClient(url string) *client.Client {
	return client.New(url, client.Options{MaxRetries: -1, Timeout: 60 * time.Second})
}

// do sends one request through cl inside a span and decodes a 2xx
// body into v.
func (c *caller) do(ctx context.Context, cl *client.Client, span string, parent int, req, method, path string, body, v any) (int, error) {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	id := c.tr.start(span, parent, req)
	resp, err := cl.Do(ctx, method, path, raw)
	c.tr.end(id)
	ok := err == nil && resp.Status >= 200 && resp.Status < 300
	c.count(ok)
	if err != nil {
		return 0, err
	}
	if !ok {
		return resp.Status, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.Status, strings.TrimSpace(string(resp.Body)))
	}
	if v != nil {
		if err := json.Unmarshal(resp.Body, v); err != nil {
			return resp.Status, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.Status, nil
}

// stream reads a sweep's whole NDJSON result stream in one request,
// keeping every event (no client-side dedupe, so a duplicate terminal
// event shows) and the time to the first one.
func (c *caller) stream(ctx context.Context, base, id string, parent int) ([]sweep.Event, sweep.View, time.Duration, error) {
	start := time.Now()
	sp := c.tr.start("sweep.stream", parent, id)
	defer c.tr.end(sp)
	var (
		events []sweep.Event
		view   sweep.View
		first  time.Duration
	)
	err := func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sweeps/"+id+"/results", nil)
		if err != nil {
			return err
		}
		resp, err := (&http.Client{}).Do(req) // no timeout: the stream lasts as long as the sweep; ctx bounds it
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("stream %s: HTTP %d", id, resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 8<<20)
		for sc.Scan() {
			var line struct {
				End   bool        `json:"end"`
				Sweep *sweep.View `json:"sweep"`
				sweep.Event
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return fmt.Errorf("stream %s: %w", id, err)
			}
			if line.End {
				if line.Sweep != nil {
					view = *line.Sweep
				}
				return nil
			}
			if first == 0 {
				first = time.Since(start)
			}
			events = append(events, line.Event)
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("stream %s ended without an end line", id)
	}()
	c.count(err == nil)
	return events, view, first, err
}

// cellJob is the interactive job spec of a sweep cell.
func cellJob(c sweep.Cell) server.JobSpec {
	return server.JobSpec{Mix: c.Mix, Controller: c.Controller, Scale: c.Scale, Seed: c.Seed, Target: c.Target, Step: c.Step}
}

func mixNames(m workload.Mix) []string {
	var out []string
	for _, s := range m.Specs {
		out = append(out, s.Name)
	}
	return out
}

// resultView is the body of GET /v1/jobs/{id}/result.
type resultView struct {
	server.JobView
	Result *server.JobResult `json:"result"`
}

// runPhases runs the four service phases against nodes and checks
// their outputs. With one node every request goes to it; with a
// cluster the cold sweep goes to the first node, the warm resubmission
// to the last, and jobs and hits are spread over all of them. ring,
// when set, computes key owners the way every node does.
func runPhases(ctx context.Context, env *roundEnv, nodes []*node, ring *cluster.Cluster) (*roundResult, error) {
	sz := env.size
	rng := xrand.New(env.seed)
	sweepMixes := placeMixes(workload.Mixes(sz.sweepCores, sz.sweepMixes, sz.scale.Seed), &rng)
	jobMixes := placeMixes(workload.Mixes(sz.coldJobCores, sz.coldJobs, sz.scale.Seed), &rng)
	grid := &sweep.Grid{Controllers: sz.sweepControllers, Scales: []string{"tiny"}, Target: sz.scale.Target, Step: sz.scale.Step}
	for _, m := range sweepMixes {
		grid.Mixes = append(grid.Mixes, mixNames(m))
	}
	cells := len(grid.Mixes) * len(grid.Controllers)
	clients := make([]*client.Client, len(nodes))
	for i, n := range nodes {
		clients[i] = newClient(n.url)
	}
	c := &caller{tr: env.tr}
	res := &roundResult{Phases: map[string]float64{}}
	var simS float64
	instr0, cpu0 := simInstructions(), cpuNow()

	// Phase 1: a cold sweep, submitted and streamed.
	sims0, err := totalSims(ctx, nodes)
	if err != nil {
		return nil, err
	}
	root := env.tr.start("phase.sweep_cold", 0, "")
	t0 := time.Now()
	var view sweep.View
	_, err = c.do(ctx, clients[0], "sweep.submit", root, "", http.MethodPost, "/v1/sweeps",
		sweep.Spec{Name: fmt.Sprintf("mamaperf-cold-%d", env.seed), Grid: grid}, &view)
	admit := time.Since(t0)
	var events []sweep.Event
	var first time.Duration
	if err == nil {
		events, view, first, err = c.stream(ctx, nodes[0].url, view.ID, root)
		first += admit
	}
	coldS := time.Since(t0).Seconds()
	env.tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("cold sweep: %w", err)
	}
	simS += coldS
	res.Phases["sweep_cold_s"] = coldS
	res.Phases["sweep_admit_ms"] = ms(admit)
	res.Phases["sweep_first_result_ms"] = ms(first)
	cold := make([]server.JobResult, cells)
	specs := make([]server.JobSpec, cells)
	terminal := map[int]int{}
	for _, ev := range events {
		terminal[ev.Cell]++
		if ev.Cell < 0 || ev.Cell >= cells {
			continue
		}
		if ev.Status != sweep.CellDone && ev.Status != sweep.CellDeduped {
			env.checkf("cold sweep cell %d ended %s: %s", ev.Cell, ev.Status, ev.Error)
			continue
		}
		specs[ev.Cell] = cellJob(ev.Spec)
		if err := json.Unmarshal(ev.Result, &cold[ev.Cell]); err != nil {
			env.checkf("cold sweep cell %d: %v", ev.Cell, err)
		}
	}
	env.check(checkTerminal(terminal, cells))
	if view.Status != "done" || view.Done != cells {
		env.checkf("cold sweep finished %q with %d of %d cells done", view.Status, view.Done, cells)
	}
	sims1, err := totalSims(ctx, nodes)
	if err != nil {
		return nil, err
	}
	env.check(checkCount(fmt.Sprintf("cold sweep of %d distinct cells", cells), sims1-sims0, uint64(cells)))
	if ring != nil {
		// Results computed off their owner reach it by an asynchronous
		// write-back; wait (untimed) until every owner holds its keys,
		// so the warm pass measures a settled cluster.
		settle := time.Now()
		for _, ev := range events {
			if err := waitOwned(ctx, ring.Owner(ev.Key), ev.Key); err != nil {
				env.check(err)
			}
		}
		res.Phases["writeback_settle_ms"] = ms(time.Since(settle))
	}

	// Phase 2: the same cells resubmitted under a new name, to the last
	// node; every cell must dedupe against the (distributed) cache.
	last := len(nodes) - 1
	root = env.tr.start("phase.sweep_warm", 0, "")
	t0 = time.Now()
	var warm sweep.View
	_, err = c.do(ctx, clients[last], "sweep.submit", root, "", http.MethodPost, "/v1/sweeps",
		sweep.Spec{Name: fmt.Sprintf("mamaperf-warm-%d", env.seed), Grid: grid}, &warm)
	var warmEvents []sweep.Event
	if err == nil {
		warmEvents, warm, _, err = c.stream(ctx, nodes[last].url, warm.ID, root)
	}
	warmS := time.Since(t0).Seconds()
	env.tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("warm sweep: %w", err)
	}
	res.Phases["sweep_warm_ms"] = warmS * 1000
	if warm.Deduped != cells || warm.Status != "done" {
		env.checkf("warm sweep: %q with %d of %d cells deduped", warm.Status, warm.Deduped, cells)
	}
	warmTerminal := map[int]int{}
	for _, ev := range warmEvents {
		warmTerminal[ev.Cell]++
		var r server.JobResult
		if ev.Cell < 0 || ev.Cell >= cells || json.Unmarshal(ev.Result, &r) != nil || !sameJobResult(r, cold[ev.Cell]) {
			env.checkf("warm sweep cell %d: result differs from the cold one", ev.Cell)
		}
	}
	env.check(checkTerminal(warmTerminal, cells))
	sims2, err := totalSims(ctx, nodes)
	if err != nil {
		return nil, err
	}
	env.check(checkCount("warm resubmission", sims2-sims1, 0))

	// Phase 3: cold interactive jobs, one at a time.
	root = env.tr.start("phase.jobs_cold", 0, "")
	var coldLat []float64
	jobStart := time.Now()
	for j, m := range jobMixes {
		spec := server.JobSpec{Mix: mixNames(m), Controller: "mumama", Scale: "tiny", Target: sz.scale.Target, Step: sz.scale.Step}
		cl := clients[j%len(clients)]
		t := time.Now()
		r, err := c.submitAndWait(ctx, cl, root, spec, "?wait=30s")
		coldLat = append(coldLat, ms(time.Since(t)))
		if err != nil {
			env.checkf("cold job %d: %v", j, err)
			continue
		}
		specs = append(specs, spec)
		cold = append(cold, r)
	}
	jobsS := time.Since(jobStart).Seconds()
	env.tr.end(root)
	simS += jobsS
	res.Phases["job_cold_p50_ms"] = median(coldLat)
	sims3, err := totalSims(ctx, nodes)
	if err != nil {
		return nil, err
	}
	env.check(checkCount(fmt.Sprintf("%d cold jobs", len(jobMixes)), sims3-sims2, uint64(len(jobMixes))))
	instr := simInstructions() - instr0

	// Phase 4: a closed loop of nproc clients, each submitting cached
	// specs and waiting for every result before the next submission.
	root = env.tr.start("phase.jobs_hit", 0, "")
	workers := runtime.NumCPU()
	lat := make([][]float64, workers)
	hitStart := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := newClient(nodes[g%len(nodes)].url)
			for i := 0; i < sz.hitsPerClient; i++ {
				k := (g + i*workers) % len(specs)
				t := time.Now()
				r, err := c.submitAndWait(ctx, cl, root, specs[k], "")
				lat[g] = append(lat[g], ms(time.Since(t)))
				if err == nil && !sameJobResult(r, cold[k]) {
					err = errors.New("cache-hit result differs from the cold one")
				}
				if err != nil {
					mu.Lock()
					env.checkf("hit %d/%d: %v", g, i, err)
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	hitS := time.Since(hitStart).Seconds()
	env.tr.end(root)
	for _, l := range lat {
		res.OpsMs = append(res.OpsMs, l...)
	}
	res.Phases["job_hit_p50_ms"] = quantile(res.OpsMs, 0.5)
	res.Phases["job_hit_p90_ms"] = quantile(res.OpsMs, 0.9)
	res.Phases["job_hit_per_s"] = float64(len(res.OpsMs)) / hitS

	wall := coldS + warmS + jobsS + hitS
	res.Passes = []pass{{WallS: wall, CPUS: cpuNow() - cpu0, Instructions: instr, SimS: simS}}
	res.Attempted, res.Failed = c.attempted, c.failed
	if env.stopProfile != nil {
		env.endTimed()
		if err := clusterTotals(ctx, nodes, env.layers); err != nil {
			return nil, err
		}
		env.layers["sweep.admit_ms"] = res.Phases["sweep_admit_ms"]
		env.layers["sweep.first_result_ms"] = res.Phases["sweep_first_result_ms"]
	}

	// Untimed checks: every result against Equations 2 and 6, and a
	// seeded sample of cells against the same spec run directly
	// through experiment.Runner.
	for i, r := range cold {
		env.check(checkJobResult(r, len(specs[i].Mix)))
	}
	scale := sz.scale
	direct := experiment.NewRunner(scale)
	for s := 0; s < sz.directSamples && cells > 0; s++ {
		k := rng.Intn(cells)
		env.check(checkDirectCell(direct, specs[k], cold[k]))
	}
	for i := range cold {
		cold[i].SimMs = 0
	}
	res.Digest = digest(cold)
	return env.finish(res), nil
}

// submitAndWait submits a job and fetches its result: the two requests
// mamactl makes for `submit -wait`.
func (c *caller) submitAndWait(ctx context.Context, cl *client.Client, parent int, spec server.JobSpec, wait string) (server.JobResult, error) {
	var view server.JobView
	if _, err := c.do(ctx, cl, "server.submit", parent, "", http.MethodPost, "/v1/jobs", spec, &view); err != nil {
		return server.JobResult{}, err
	}
	var rv resultView
	if _, err := c.do(ctx, cl, "server.result", parent, view.ID, http.MethodGet, "/v1/jobs/"+view.ID+"/result"+wait, nil, &rv); err != nil {
		return server.JobResult{}, err
	}
	if rv.Status != server.StatusDone || rv.Result == nil {
		return server.JobResult{}, fmt.Errorf("job %s: status %s %s", view.ID, rv.Status, rv.Error)
	}
	return *rv.Result, nil
}

// waitOwned polls the owner's cache until it holds key.
func waitOwned(ctx context.Context, owner, key string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var r server.JobResult
		if err := getJSON(ctx, owner+"/internal/cache/"+key, &r); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("owner %s never received key %s", owner, key)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkDirectCell runs one cell directly through experiment.Runner and
// compares it with the service's result.
func checkDirectCell(r *experiment.Runner, spec server.JobSpec, got server.JobResult) error {
	mix := workload.Mix{ID: int(spec.Seed)}
	for _, name := range spec.Mix {
		ws, err := workload.ByName(name)
		if err != nil {
			return err
		}
		mix.Specs = append(mix.Specs, ws)
	}
	cfg := sim.DefaultConfig(len(mix.Specs))
	want, err := r.RunMix(mix, cfg, spec.Controller, experiment.Options{})
	if err != nil {
		return err
	}
	if err := checkSimResult(want.Result, r.Scale.Target, r.Scale.MaxCycles(), cfg.Epoch); err != nil {
		return err
	}
	return checkDirect(got, want)
}
