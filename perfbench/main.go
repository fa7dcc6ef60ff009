// Command perfbench is the repository's benchmark: it runs one workload
// of the SkyBridge simulator for a host-time budget and prints every
// metric by name with its unit, ending with one JSON result line.
//
//	bash perfbench/run.sh --workload db-ycsb-a-sb --seed 1 --seconds 10 --trace 0
//
// Each run re-executes itself as a child process at GOMAXPROCS=1 (see
// README.md for why); the parent reports a child that crashes or hangs
// as a run in which every operation failed.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"skybridge/internal/bench"
	"skybridge/internal/obs"
)

// load is one workload's simulated set-up and window.
type load interface {
	windowOps() int
	run(rc *repCtx) error
}

type workloadDef struct {
	name    string
	clients int // independent op streams (oracles, latency series)
	load    load
	// sets is how many different input sets a run measures, one per
	// rep: the simulated metrics pool the first rep of each set, so a
	// metric's spread over seeds shrinks with more sets. Later reps
	// repeat the sets and must simulate what their set's first did.
	sets int
	// migrates is whether the workload runs the placement director.
	migrates bool
	// noStorage is whether the workload must leave the file system,
	// block device and pager untouched; traced runs check it.
	noStorage bool
	// coverage lists what the window must exercise, given its counter
	// deltas; each returned string is a failed check.
	coverage func(d map[string]uint64) []string
}

var workloads = []workloadDef{
	{
		name:    "db-ycsb-a-sb",
		clients: 4,
		load:    dbLoad{mode: bench.ModeSB, readProp: 0.5, clients: 4, records: 1000, warm: 200, window: 2500},
		sets:    3,
		coverage: func(d map[string]uint64) []string {
			return need(d, "core.direct_calls", ">0", "mk.ipc_calls", "=0")
		},
	},
	{
		name:    "db-ycsb-c-ipc",
		clients: 4,
		load:    dbLoad{mode: bench.ModeMT, readProp: 1, clients: 4, records: 1000, warm: 500, window: 10000},
		sets:    3,
		coverage: func(d map[string]uint64) []string {
			return need(d, "mk.ipc_calls", ">0", "core.direct_calls", "=0")
		},
	},
	{
		name:      "kv-tenants-1024",
		clients:   1024,
		load:      tenantsLoad{tenants: 1024, serverCores: 4, clientCores: 4, keys: 4, perTenant: 16, think: 3_000_000, worlds: 3},
		sets:      3,
		noStorage: true,
		coverage: func(d map[string]uint64) []string {
			return need(d, "core.ring_ops", ">0")
		},
	},
	{
		name:      "kv-skew-adaptive",
		clients:   8,
		load:      skewLoad{serverCores: 4, clientCores: 4, clients: 8, records: 32768, warm: 150, window: 1500, inflight: 8, worlds: 16},
		sets:      6,
		migrates:  true,
		noStorage: true,
		coverage: func(d map[string]uint64) []string {
			return need(d, "core.ring_ops", ">0")
		},
	},
}

// need checks counter deltas against (name, ">0"|"=0") pairs.
func need(d map[string]uint64, pairs ...string) []string {
	var bad []string
	for i := 0; i+1 < len(pairs); i += 2 {
		name, want := pairs[i], pairs[i+1]
		if (want == ">0") != (d[name] > 0) {
			bad = append(bad, fmt.Sprintf("%s=%d, want %s", name, d[name], want))
		}
	}
	return bad
}

// storageLayers are the layers a KV workload must not run.
var storageLayers = []string{"fs", "blockdev", "db"}

// storageTouched checks a window's CPU profile, summed by layer anywhere
// on the sampled stack, for time spent in a storage layer. The storage
// layers register no simulated counters, so the host profile is where
// their use shows.
func storageTouched(onStack map[string]int64) []string {
	var bad []string
	for _, l := range storageLayers {
		if ns := onStack[l]; ns > 0 {
			bad = append(bad, fmt.Sprintf("%s on the CPU profile's stacks for %v, want 0", l, time.Duration(ns)))
		}
	}
	return bad
}

func findWorkload(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics (BENCHMARK.json end_to_end).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alloc_bytes_per_op", "B/op"},
	{"peak_rss_mb", "MB"},
	{"sim_ops_per_mcyc", "ops/Mcyc"},
	{"sim_mean_cyc", "cyc"},
	{"sim_p99_cyc", "cyc"},
	{"success_ratio", "ratio"},
}

var setupPhases = []string{"boot", "preload", "register", "bind", "warm"}

var spanKinds = []string{"get", "update", "submit", "reap"}

// perLayer are the traced run's metrics (BENCHMARK.json per_layer).
var perLayer = func() []metricDef {
	// Host time per op moves with the shared machine's memory
	// contention by more than any bound may allow (README.md), so it
	// is reported here, ungated, next to its split by layer.
	m := []metricDef{{"host_ops_per_s", "1/s"}, {"host_cpu_ms_per_kop", "ms/kop"}}
	for _, l := range hostLayers {
		m = append(m, metricDef{"host_self_ms_per_kop." + l, "ms/kop"})
	}
	for _, p := range setupPhases {
		m = append(m, metricDef{"span." + p + ".host_ms", "ms"})
	}
	for _, k := range spanKinds {
		m = append(m, metricDef{"span." + k + ".sim_p50_cyc", "cyc"})
	}
	for _, p := range obs.PhaseNames() {
		m = append(m, metricDef{"phase_p50_cyc." + p, "cyc"})
	}
	return append(m, simLayerDefs...)
}()

// simLayerDefs are the exact simulated counts per window op.
var simLayerDefs = []metricDef{
	{"hw.page_walks_per_op", "1/op"},
	{"hw.walkmemo_hit_ratio", "ratio"},
	{"hv.list_installs_per_kop", "1/kop"},
	{"hv.slot_evictions_per_kop", "1/kop"},
	{"mk.ipc_calls_per_op", "1/op"},
	{"mk.fastpath_ratio", "ratio"},
	{"mk.parks_per_kop", "1/kop"},
	{"core.direct_calls_per_op", "1/op"},
	{"core.ring_ops_per_op", "1/op"},
	{"core.doorbells_per_kop", "1/kop"},
	{"core.doorbell_skip_ratio", "ratio"},
	{"place.migrations", "count"},
	{"place.steals_per_kop", "1/kop"},
	{"place.scale_downs", "count"},
	{"place.wrong_epoch_per_kop", "1/kop"},
	{"svc.retry_ratio", "ratio"},
	{"fs.lock_wait_cyc_per_op", "cyc/op"},
	{"fs.lock_contended_ratio", "ratio"},
	{"fs.commits_per_kop", "1/kop"},
	{"fs.bcache_hit_ratio", "ratio"},
	{"db.pager_hit_ratio", "ratio"},
	{"db.pager_fs_reads_per_op", "1/op"},
	{"db.pager_fs_writes_per_op", "1/op"},
	{"sim_p50_cyc", "cyc"},
	{"sim_samples", "count"},
	{"error_rate", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

// simLayer computes the per-op simulated counts from window deltas.
func simLayer(d map[string]uint64, ops int) map[string]float64 {
	n := uint64(ops)
	k := func(v uint64) float64 { return 1000 * ratio(v, n) }
	return map[string]float64{
		"hw.page_walks_per_op":      ratio(d["hw.page_walks"], n),
		"hw.walkmemo_hit_ratio":     ratio(d["hw.memo_hits"], d["hw.memo_attempts"]),
		"hv.list_installs_per_kop":  k(d["hv.list_installs"]),
		"hv.slot_evictions_per_kop": k(d["hv.slot_evictions"]),
		"mk.ipc_calls_per_op":       ratio(d["mk.ipc_calls"], n),
		"mk.fastpath_ratio":         ratio(d["mk.fastpaths"], d["mk.fastpaths"]+d["mk.slowpaths"]),
		"mk.parks_per_kop":          k(d["mk.parks"]),
		"core.direct_calls_per_op":  ratio(d["core.direct_calls"], n),
		"core.ring_ops_per_op":      ratio(d["core.ring_ops"], n),
		"core.doorbells_per_kop":    k(d["core.ring_doorbells"]),
		"core.doorbell_skip_ratio": ratio(d["core.ring_doorbells_skipped"],
			d["core.ring_doorbells"]+d["core.ring_doorbells_skipped"]),
		"place.migrations":          float64(d["place.migrations"]),
		"place.steals_per_kop":      k(d["place.steals"]),
		"place.scale_downs":         float64(d["place.scale_downs"]),
		"place.wrong_epoch_per_kop": k(d["place.wrong_epoch"]),
		"svc.retry_ratio":           ratio(d["svc.retries"], n),
		"fs.lock_wait_cyc_per_op":   ratio(d["fs.lock_wait_cyc"], n),
		"fs.lock_contended_ratio":   ratio(d["fs.lock_contended"], d["fs.lock_acq"]),
		"fs.commits_per_kop":        k(d["fs.commits"]),
		"fs.bcache_hit_ratio":       ratio(d["fs.bcache_hits"], d["fs.bcache_hits"]+d["fs.bcache_misses"]),
		"db.pager_hit_ratio":        ratio(d["db.pager_hits"], d["db.pager_hits"]+d["db.pager_misses"]),
		"db.pager_fs_reads_per_op":  ratio(d["db.pager_fs_reads"], n),
		"db.pager_fs_writes_per_op": ratio(d["db.pager_fs_writes"], n),
	}
}

// repOut is one repetition's measurements.
type repOut struct {
	set                   int // which input set the rep measured
	setupS, windowS, cpuS float64
	peakRSSMB             float64 // the process's max RSS by the rep's end
	allocB                float64
	attempted, failed     int
	raw                   simRaw
	simStats              // this rep's alone; deterministic at a fixed seed and set
	phaseMs               map[string]float64
	phaseP50              map[string]float64
	layerNs               map[string]int64
	problems              []string // correctness, coverage, oracle
}

func (r *repOut) hostOpsPerS() float64 { return float64(r.attempted-r.failed) / r.windowS }

// simRaw is what reps simulated in their windows, kept so that the reps
// of different input sets can be pooled.
type simRaw struct {
	ops     int                // planned window ops
	lat     counted            // per-op latencies
	kindLat map[string]counted // simulated cycles of each call into a layer
	delta   map[string]uint64  // counter deltas
	simSpan uint64             // window makespans, summed
}

// poolRaw joins reps' simulated windows.
func poolRaw(rs []simRaw) simRaw {
	p := simRaw{kindLat: make(map[string]counted), delta: make(map[string]uint64)}
	for _, r := range rs {
		p.ops += r.ops
		p.lat = p.lat.add(r.lat)
		for k, v := range r.kindLat {
			p.kindLat[k] = p.kindLat[k].add(v)
		}
		for k, v := range r.delta {
			p.delta[k] += v
		}
		p.simSpan += r.simSpan
	}
	return p
}

// simStats are the simulated metrics of some windows.
type simStats struct {
	sim             map[string]float64
	digest          string // of the per-op latencies in completion order, one per input set
	samples, beyond int
}

// stats computes the simulated metrics of r, with a problem for each
// percentile the samples cannot support.
func (r simRaw) stats() (simStats, []string) {
	var problems []string
	n := r.lat.len()
	st := simStats{sim: simLayer(r.delta, r.ops), samples: n}
	st.sim["sim_ops_per_mcyc"] = float64(n) * 1e6 / float64(max(r.simSpan, 1))
	st.sim["sim_mean_cyc"] = float64(r.lat.sum()) / float64(max(n, 1))
	if p50, _, err := percentile(r.lat, 0.5); err == nil {
		st.sim["sim_p50_cyc"] = float64(p50)
	} else {
		problems = append(problems, err.Error())
	}
	p99, beyond, err := tailPercentile(r.lat, 0.99)
	if err != nil {
		problems = append(problems, err.Error())
	}
	st.sim["sim_p99_cyc"], st.beyond = float64(p99), beyond
	st.sim["sim_samples"] = float64(n)
	for _, kind := range spanKinds {
		p, _, _ := percentile(r.kindLat[kind], 0.5)
		st.sim["span."+kind+".sim_p50_cyc"] = float64(p)
	}
	return st, problems
}

// simKey is the simulated fingerprint: every simulated metric and the
// latency digest. Reps of one seed and set must agree on it exactly.
func (st *simStats) simKey() string {
	keys := make([]string, 0, len(st.sim))
	for k := range st.sim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v ", k, st.sim[k])
	}
	return b.String() + "digest=" + st.digest
}

// runRep sets up, warms and measures one repetition of input set set.
func runRep(wd *workloadDef, seed int64, set int, traced bool) (*repOut, *spanLog, error) {
	rc := newRepCtx(seed*int64(wd.sets)+int64(set), wd.clients, traced)
	if err := wd.load.run(rc); err != nil {
		return nil, nil, err
	}
	if rc.windows == 0 || rc.inWindow {
		return nil, nil, errors.New("window never opened and closed")
	}
	out := &repOut{
		set:     set,
		setupS:  rc.setup().Seconds(),
		windowS: rc.hostWin.Seconds(),
		cpuS:    rc.cpuWin.Seconds(),
		phaseMs: rc.phaseMs,
	}
	planned := wd.load.windowOps()
	var samples []uint64
	for _, l := range rc.lat {
		samples = append(samples, l...)
	}
	out.raw = simRaw{ops: planned, lat: countOf(samples), kindLat: make(map[string]counted), delta: rc.delta, simSpan: rc.simSpan}
	for k, v := range rc.kindLat {
		out.raw.kindLat[k] = countOf(v)
	}
	out.attempted = planned
	out.failed = rc.failWin
	if missing := planned - len(samples); missing > 0 {
		out.failed += missing
		out.problems = append(out.problems, fmt.Sprintf("%d of %d window ops never completed", missing, planned))
	}
	if out.failed > planned {
		out.failed = planned
	}
	out.allocB = float64(rc.allocWin) / float64(planned)
	for _, o := range rc.oracles {
		if o.Mismatches > 0 {
			out.problems = append(out.problems, fmt.Sprintf("oracle: %d failures, first: %s", o.Mismatches, o.First))
			break
		}
	}

	delta := rc.delta
	out.problems = append(out.problems, wd.coverage(delta)...)
	if migr := delta["place.migrations"] > 0; migr != wd.migrates {
		out.problems = append(out.problems, fmt.Sprintf("place.migrations=%d on a workload that %s migrate",
			delta["place.migrations"], map[bool]string{true: "must", false: "must not"}[wd.migrates]))
	}
	if delta["place.wrong_epoch"] != delta["svc.retries"] {
		out.problems = append(out.problems, fmt.Sprintf("exactly-once: %d wrong-epoch rejects but %d router retries",
			delta["place.wrong_epoch"], delta["svc.retries"]))
	}
	var problems []string
	out.simStats, problems = out.raw.stats()
	out.digest = digest(samples)
	out.problems = append(out.problems, problems...)

	if traced {
		out.phaseP50 = make(map[string]float64)
		for p, name := range obs.PhaseNames() {
			out.phaseP50["phase_p50_cyc."+name] = float64(rc.phases.Phase(obs.CallPhase(p)).Quantile(0.5))
		}
		if rc.profErr != nil {
			return nil, nil, fmt.Errorf("cpu profile: %w", rc.profErr)
		}
		out.layerNs = rc.layerNs
		if wd.noStorage {
			out.problems = append(out.problems, storageTouched(rc.stackNs)...)
		}
	}
	return out, rc.spans, nil
}

// budget is how the child spends its host time: reps continue until
// their windows add up to the requested seconds, with at least minReps
// set-ups (setup_s is their median) and no rep started that could end
// past the hard limit.
type budget struct {
	window   time.Duration
	minReps  int
	deadline time.Time
}

func (b budget) more(reps []*repOut, spent time.Duration, last time.Duration) bool {
	if len(reps) < b.minReps {
		return true
	}
	return spent < b.window && time.Now().Add(last).Before(b.deadline)
}

func runReps(wd *workloadDef, seed int64, traced bool, b budget) ([]*repOut, *spanLog, error) {
	var reps []*repOut
	var first *spanLog
	var spent, last time.Duration
	for b.more(reps, spent, last) {
		t := time.Now()
		r, spans, err := runRep(wd, seed, len(reps)%wd.sets, traced)
		if err != nil {
			return nil, nil, fmt.Errorf("rep %d: %w", len(reps)+1, err)
		}
		if first == nil {
			first = spans
		}
		r.peakRSSMB = peakRSSMB()
		reps = append(reps, r)
		spent += time.Duration(r.windowS * float64(time.Second))
		last = time.Since(t)
		fmt.Printf("rep %d%s: set=%d setup_s=%.4f window_s=%.4f ops=%d failed=%d host_ops_per_s=%.1f cpu_s=%.4f alloc_B_per_op=%.0f max_rss_mb=%.1f digest=%s\n",
			len(reps), map[bool]string{true: " (traced)", false: ""}[traced], r.set, r.setupS, r.windowS,
			r.attempted, r.failed, r.hostOpsPerS(), r.cpuS, r.allocB, r.peakRSSMB, r.digest)
		// Free this world before the next one is built, so each rep
		// starts from the same heap and peak RSS is one world's.
		runtime.GC()
		debug.FreeOSMemory()
	}
	return reps, first, nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is the final line's schema.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func medianOf(reps []*repOut, f func(*repOut) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// child runs the measurement and prints the result; it returns the
// process exit code.
func child(wd *workloadDef, seed int64, seconds int, trace bool, outDir string) int {
	start := time.Now()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v gomaxprocs=%d\n",
		wd.name, seed, seconds, trace, runtime.GOMAXPROCS(0))
	fmt.Printf("plan window_ops_per_rep=%d\n", wd.load.windowOps())
	win := time.Duration(seconds) * time.Second
	// Untraced reps may use most of the hard limit; a traced run splits
	// it between the untraced reps (trace_overhead_frac's base) and the
	// traced ones.
	limit := start.Add(childLimit)
	if trace {
		limit = start.Add(childLimit / 2)
	}
	plain, _, err := runReps(wd, seed, false, budget{window: win, minReps: max(3, wd.sets), deadline: limit})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := plain
	var traced []*repOut
	var spans *spanLog
	if trace {
		traced, spans, err = runReps(wd, seed, true, budget{window: win, minReps: 1, deadline: start.Add(childLimit)})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		all = append(all, traced...)
	}

	res := result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			res.Correct = false
			fmt.Printf("FAIL: %s\n", p)
		}
	}
	// Determinism guard: every rep of one input set, traced or not, must
	// simulate the same thing as the set's first.
	for i, r := range all {
		if first := plain[r.set]; r != first && r.simKey() != first.simKey() {
			res.Correct = false
			fmt.Printf("FAIL: determinism: rep %d differs from rep %d (set %d)\n  rep %d: %s\n  rep %d: %s\n",
				i+1, r.set+1, r.set, r.set+1, first.simKey(), i+1, r.simKey())
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	// The simulated metrics pool the first rep of every input set.
	var raws []simRaw
	for _, r := range plain[:wd.sets] {
		raws = append(raws, r.raw)
	}
	ref, problems := poolRaw(raws).stats()
	var digests []string
	for _, r := range plain[:wd.sets] {
		digests = append(digests, r.digest)
	}
	ref.digest = strings.Join(digests, ",")
	for _, p := range problems {
		res.Correct = false
		fmt.Printf("FAIL: %s\n", p)
	}
	fmt.Printf("sim: sets=%d samples=%d p50=%.0f mean=%.1f p99=%.0f beyond_p99=%d ops_per_mcyc=%.4f digest=%s\n",
		wd.sets, ref.samples, ref.sim["sim_p50_cyc"], ref.sim["sim_mean_cyc"], ref.sim["sim_p99_cyc"], ref.beyond,
		ref.sim["sim_ops_per_mcyc"], ref.digest)

	values := map[string]float64{
		"setup_s":             medianOf(plain, func(r *repOut) float64 { return r.setupS }),
		"host_ops_per_s":      medianOf(plain, (*repOut).hostOpsPerS),
		"host_cpu_ms_per_kop": medianOf(plain, func(r *repOut) float64 { return r.cpuS * 1e6 / float64(r.attempted) }),
		"alloc_bytes_per_op":  medianOf(plain, func(r *repOut) float64 { return r.allocB }),
		// Max RSS can only grow with every rep, so it is read after the
		// first rep of every set, not after as many as the host fits.
		"peak_rss_mb":   plain[wd.sets-1].peakRSSMB,
		"success_ratio": 1 - float64(res.Failed)/float64(max(res.Attempted, 1)),
		"error_rate":    float64(res.Failed) / float64(max(res.Attempted, 1)),
	}
	for k, v := range ref.sim {
		values[k] = v
	}
	for _, p := range setupPhases {
		values["span."+p+".host_ms"] = medianOf(plain, func(r *repOut) float64 { return r.phaseMs[p] })
	}
	report := endToEnd
	if trace {
		report = perLayer
		tr := traced[0]
		for k, v := range tr.phaseP50 {
			values[k] = v
		}
		var ns = make(map[string]int64)
		ops := 0
		for _, r := range traced {
			for l, v := range r.layerNs {
				ns[l] += v
			}
			ops += r.attempted
		}
		for _, l := range hostLayers {
			values["host_self_ms_per_kop."+l] = float64(ns[l]) / 1e6 / (float64(ops) / 1000)
		}
		values["trace_overhead_frac"] = 1 - medianOf(traced, (*repOut).hostOpsPerS)/values["host_ops_per_s"]
		if outDir != "" {
			file := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", wd.name, seed))
			if err := spans.write(file); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
				return 1
			}
			fmt.Printf("trace: %s\n", file)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := values[m.name]; ok && (trace || !isPerLayer(m.name)) {
			fmt.Printf("metric %-34s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	for _, m := range report {
		if !validName(m.name) {
			fmt.Fprintf(os.Stderr, "perfbench: invalid metric name %q\n", m.name)
			return 1
		}
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

// childLimit bounds a child's measuring; the parent kills it at
// childKill, well inside the 180 s a run may take.
const (
	childLimit = 120 * time.Second
	childKill  = 170 * time.Second
)

// parent re-executes this binary as the measured child at GOMAXPROCS=1,
// echoes its output, and stands in for a result the child never printed.
func parent(args []string, wd *workloadDef, trace bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cmd := exec.Command(exe, append([]string{"-child"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	kill := time.AfterFunc(childKill, func() { _ = cmd.Process.Kill() })
	last, planned := relay(stdout, os.Stdout)
	waitErr := cmd.Wait()
	kill.Stop()
	var res result
	if waitErr == nil && json.Unmarshal([]byte(last), &res) == nil && res.Metrics != nil {
		return 0
	}
	// The child crashed, hung or printed no result: every planned
	// operation of the run counts as failed.
	fmt.Printf("FAIL: measured process: %v\n", waitErr)
	res = result{Attempted: max(planned, 1), Failed: max(planned, 1), Metrics: make(map[string]metricValue)}
	report := endToEnd
	if trace {
		report = perLayer
	}
	for _, m := range report {
		v := 0.0
		if m.name == "error_rate" {
			v = 1
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

// relay copies the child's lines to w, returning the last line and the
// planned window ops it announced.
func relay(r io.Reader, w io.Writer) (last string, planned int) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(w, line)
		fmt.Sscanf(line, "plan window_ops_per_rep=%d", &planned)
		last = line
	}
	return last, planned
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "host seconds of measured windows")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	isChild := fs.Bool("child", false, "run the measurement in this process")
	outDir := fs.String("out", "", "directory for the trace file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	wd, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	if *isChild {
		os.Exit(child(wd, *seed, *seconds, *trace == 1, *outDir))
	}
	os.Exit(parent(os.Args[1:], wd, *trace == 1))
}
