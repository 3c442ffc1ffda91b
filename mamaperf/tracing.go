package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// perLayerMetrics is every metric a traced run prints, named
// <layer>.<metric> after the repository's packages. CPU is reported
// as 100 Hz profile samples (10 ms of CPU each) whose leaf frame lies
// in the layer.
var perLayerMetrics = []struct{ name, unit string }{
	{"trace.cpu_samples", "count"}, {"trace.pool_mb", "MB"}, {"trace.materializations", "count"}, {"trace.tail_streams", "count"},
	{"runtime.gc_cpu_s", "s"}, {"runtime.alloc_mb", "MB"}, {"runtime.cpu_samples", "count"},
	{"sim.cpu_samples", "count"}, {"sim.instructions", "count"}, {"sim.epochs", "count"}, {"sim.parallel_epochs", "count"},
	{"cache.cpu_samples", "count"}, {"cache.l1d_accesses", "count"}, {"cache.l2_accesses", "count"}, {"cache.llc_accesses", "count"}, {"cache.llc_misses", "count"},
	{"prefetch.cpu_samples", "count"}, {"prefetch.l2_issued", "count"}, {"prefetch.useful", "count"}, {"prefetch.dropped", "count"}, {"prefetch.accuracy", "ratio"},
	{"dram.cpu_samples", "count"}, {"dram.requests", "count"}, {"dram.row_hit_ratio", "ratio"}, {"dram.queue_delay_cycles", "count"},
	{"noc.cpu_samples", "count"},
	{"core.cpu_samples", "count"}, {"core.jav_joint_steps", "count"}, {"core.jav_local_steps", "count"},
	{"experiment.cpu_samples", "count"}, {"experiment.cache_hits", "count"}, {"experiment.cache_misses", "count"}, {"experiment.singleflight_merges", "count"},
	{"server.cpu_samples", "count"}, {"server.simulations", "count"}, {"server.result_cache_hits", "count"}, {"server.dedup_hits", "count"}, {"server.persist_writes", "count"},
	{"hash.cpu_samples", "count"}, {"json.cpu_samples", "count"}, {"http.cpu_samples", "count"},
	{"sweep.cpu_samples", "count"}, {"sweep.cells_deduped", "count"}, {"sweep.persist_writes", "count"},
	{"cluster.cpu_samples", "count"}, {"cluster.proxied", "count"}, {"cluster.remote_cells", "count"}, {"cluster.remote_cache_hits", "count"},
	{"cluster.remote_cache_misses", "count"}, {"cluster.steals_in", "count"}, {"cluster.writebacks", "count"}, {"cluster.degraded_local", "count"}, {"cluster.suspects", "count"},
	{"client.cpu_samples", "count"},
	{"tracing.wall_s", "s"}, {"tracing.overhead_pct", "%"},
}

// span is one call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	// StartNs and EndNs are nanoseconds since the tracer started.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the round ends. A nil tracer
// records nothing, so untraced rounds pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, StartNs: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// dump writes the spans as JSON under dir and returns the file path.
func (t *tracer) dump(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(filepath.Join(dir, "spans"), 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(filepath.Join(dir, "spans"), fmt.Sprintf("%s-seed%d-*.json", workload, seed))
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(t.spans)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return f.Name(), err
}

// spanSummary aggregates the spans of one name. Self time is a span's
// duration minus the part of it that its child spans cover.
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	self := map[string]float64{}
	for _, s := range t.spans {
		d := float64(s.EndNs - s.StartNs)
		durs[s.Name] = append(durs[s.Name], d/1e6)
		self[s.Name] += (d - covered(s, children[s.ID])) / 1e9
	}
	var out []spanSummary
	for _, name := range sortedKeys(durs) {
		var total float64
		for _, d := range durs[name] {
			total += d / 1e3
		}
		out = append(out, spanSummary{Name: name, Count: len(durs[name]), P50Ms: median(durs[name]), TotalS: total, SelfS: self[name]})
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return float64(total)
}

// cpuProfile is a running runtime/pprof CPU profile of this process.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns its samples by layer.
func (p *cpuProfile) stop() (map[string]int64, error) {
	pprof.StopCPUProfile()
	return layerSamples(p.buf.Bytes())
}

// layerOf attributes a leaf frame to a layer by its package; frames in
// the server's cluster.go belong to the cluster layer.
func layerOf(fn, file string) string {
	if strings.HasSuffix(file, "internal/server/cluster.go") {
		return "cluster"
	}
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "micromama/internal/"); ok {
		switch rest {
		case "trace", "workload":
			return "trace"
		case "core", "bandit":
			return "core"
		case "sim", "cache", "prefetch", "dram", "noc", "experiment", "server", "sweep", "cluster", "client":
			return rest
		}
		return "other"
	}
	switch {
	case pkg == "crypto/sha256" || strings.HasPrefix(pkg, "crypto/internal/fips140/sha256"):
		return "hash"
	case pkg == "encoding/json":
		return "json"
	case strings.HasPrefix(pkg, "net/http") || strings.HasPrefix(pkg, "vendor/golang.org/x/net/http"):
		return "http"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main" || pkg == "micromama/mamaperf": // the binary, its test binary
		return "bench"
	}
	return "other"
}

// funcPackage returns the import path of a symbol such as
// "micromama/internal/cache.(*Cache).Lookup".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerSamples decodes a gzip-compressed profile.proto (the format
// runtime/pprof writes) far enough to attribute every sample to the
// layer of its leaf frame. For an inlined leaf the innermost function
// counts.
func layerSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples   []sample
		strs      []string
		locFunc   = map[uint64]uint64{} // location ID → innermost function ID
		funcNames = map[uint64][2]int64{}
	)
	err = protoFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location IDs leaf first, then values (samples, cpu ns)
			var s sample
			var locs, vals int
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return protoUints(v, b, func(x uint64) {
						if locs++; locs == 1 {
							s.leaf = x
						}
					})
				case 2:
					return protoUints(v, b, func(x uint64) {
						if vals++; vals == 1 {
							s.count = int64(x)
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			haveFn := false
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if !haveFn {
						haveFn = true
						return protoFields(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name, file int64
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			funcNames[id] = [2]int64{name, file}
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := map[string]int64{}
	for _, s := range samples {
		f := funcNames[locFunc[s.leaf]]
		out[layerOf(str(f[0]), str(f[1]))] += s.count
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// protoFields walks the fields of one protobuf message, handing
// varint fields' values and length-delimited fields' bytes to fn.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var data []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// protoUints yields a repeated integer field in either encoding: one
// varint (v) or a packed run of varints (data).
func protoUints(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
