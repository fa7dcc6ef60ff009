package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"skybridge/internal/bench"
)

func seq(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	v, beyond, err := tailPercentile(countOf(seq(1000)), 0.99)
	if err != nil || v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %d, %d beyond, %v; want 990, 10 beyond", v, beyond, err)
	}
	_, beyond, err = tailPercentile(countOf(seq(999)), 0.99)
	if err == nil || beyond != 9 {
		t.Fatalf("p99 of 999 samples: %d beyond, err %v; want an error with 9 beyond", beyond, err)
	}
	if !strings.Contains(err.Error(), "999 samples") {
		t.Errorf("error %q does not report the sample count", err)
	}
	if v, _, err := percentile(countOf(seq(9)), 0.5); err != nil || v != 5 {
		t.Errorf("p50 of 1..9 = %d, %v; want 5", v, err)
	}
	if _, _, err := percentile(counted{}, 0.5); err == nil {
		t.Error("percentile of no samples did not fail")
	}
}

func TestDigestFollowsOrderAndValues(t *testing.T) {
	a := digest([]uint64{1, 2, 3})
	if a != digest([]uint64{1, 2, 3}) {
		t.Fatal("digest is not a function of its input")
	}
	if a == digest([]uint64{1, 3, 2}) || a == digest([]uint64{1, 2, 4}) {
		t.Fatal("digest ignores order or values")
	}
}

// TestPooledSetsJoinWindows checks that pooling input sets keeps every
// sample and adds up ops, counters and makespans, so the pooled p99 is
// that of all the sets' samples together.
func TestPooledSetsJoinWindows(t *testing.T) {
	c := countOf([]uint64{9, 5, 1, 5, 5})
	if !reflect.DeepEqual(c, counted{vals: []uint64{1, 5, 9}, ns: []int{1, 3, 1}}) || c.len() != 5 || c.sum() != 25 {
		t.Fatalf("countOf = %+v (len %d, sum %d)", c, c.len(), c.sum())
	}
	hi := seq(1000)
	for i := range hi {
		hi[i] += 500
	}
	a := simRaw{ops: 1000, lat: countOf(seq(1000)), delta: map[string]uint64{"core.ring_ops": 3}, simSpan: 10,
		kindLat: map[string]counted{"get": countOf([]uint64{5})}}
	b := simRaw{ops: 1000, lat: countOf(hi), delta: map[string]uint64{"core.ring_ops": 4}, simSpan: 30,
		kindLat: map[string]counted{"get": countOf([]uint64{7, 7})}}
	p := poolRaw([]simRaw{a, b})
	if p.ops != 2000 || p.simSpan != 40 || p.delta["core.ring_ops"] != 7 || p.kindLat["get"].len() != 3 {
		t.Fatalf("pooled ops=%d span=%d ring_ops=%d gets=%+v", p.ops, p.simSpan, p.delta["core.ring_ops"], p.kindLat["get"])
	}
	if !reflect.DeepEqual(p.lat, countOf(append(seq(1000), hi...))) {
		t.Fatal("pooled latencies are not both sets' samples")
	}
	st, problems := p.stats()
	want := map[string]float64{"sim_p99_cyc": 1480, "sim_p50_cyc": 750, "sim_mean_cyc": 750.5,
		"sim_ops_per_mcyc": 2000 * 1e6 / 40, "span.get.sim_p50_cyc": 7}
	for k, v := range want {
		if st.sim[k] != v {
			t.Errorf("pooled %s = %v, want %v", k, st.sim[k], v)
		}
	}
	if len(problems) > 0 || st.beyond != 20 || st.samples != 2000 {
		t.Fatalf("pooled beyond=%d samples=%d problems=%v", st.beyond, st.samples, problems)
	}
}

func TestLayerOf(t *testing.T) {
	f := func(fn, file string) frame { return frame{fn: fn, file: file} }
	cases := []struct {
		want  string
		stack []frame
	}{
		{"hw", []frame{f("skybridge/internal/hw.(*Cache).AccessRange", "/src/internal/hw/cache.go")}},
		{"core", []frame{f("skybridge/internal/core.(*AsyncRing).Submit.func1", "/src/internal/core/asyncring.go")}},
		// Transparent runtime helpers bill their caller's layer.
		{"blockdev", []frame{
			f("runtime.memmove", "/go/src/runtime/memmove_amd64.s"),
			f("skybridge/internal/blockdev.(*Device).Write", "/src/internal/blockdev/blockdev.go"),
		}},
		{"gc", []frame{
			f("runtime.memclrNoHeapPointers", "/go/src/runtime/memclr_amd64.s"),
			f("runtime.mallocgc", "/go/src/runtime/malloc.go"),
			f("skybridge/internal/db.(*Pager).Get", "/src/internal/db/pager.go"),
		}},
		{"gc", []frame{f("runtime.scanobject", "/go/src/runtime/mgcmark.go"), f("runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go")}},
		{"sched", []frame{
			f("internal/runtime/syscall.Syscall6", "/go/src/internal/runtime/syscall/asm_linux_amd64.s"),
			f("runtime.futex", "/go/src/runtime/sys_linux_amd64.s"),
			f("runtime.futexsleep", "/go/src/runtime/os_linux.go"),
			f("skybridge/internal/sim.(*Thread).Park", "/src/internal/sim/engine.go"),
		}},
		{"sched", []frame{f("runtime.goexit", "/go/src/runtime/asm_amd64.s")}},
		{"rest", []frame{f("fmt.Sprintf", "/go/src/fmt/print.go"), f("main.putFrame", "/src/perfbench/kvload.go")}},
		{"rest", []frame{f("skybridge/internal/ycsb.(*Generator).Next", "/src/internal/ycsb/ycsb.go")}},
		{"rest", nil},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

//go:noinline
func burnCPU(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

var sink int

// TestProfileLayersDecodesRuntimeProfiles checks the hand-written pprof
// decoder against a profile the Go runtime itself wrote.
func TestProfileLayersDecodesRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	sink = burnCPU(400 * time.Millisecond)
	pprof.StopCPUProfile()
	layers, onStack, err := profileLayers(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if layers["rest"] < int64(100*time.Millisecond) {
		t.Errorf("burning 400ms in this package attributed %v to rest (all: %v)", time.Duration(layers["rest"]), layers)
	}
	if bad := storageTouched(onStack); bad != nil {
		t.Errorf("burning CPU in this package touched storage: %q", bad)
	}
	if _, _, err := profileLayers([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

// TestStorageTouchedSeesCallers checks the KV workloads' no-storage
// check: a storage frame anywhere on a stack counts, even when a lower
// layer's frame owns the sample's self time.
func TestStorageTouchedSeesCallers(t *testing.T) {
	f := func(fn string) frame { return frame{fn: fn} }
	stack := []frame{
		f("skybridge/internal/hw.(*Cache).AccessRange"),
		f("skybridge/internal/blockdev.(*Device).Write"),
		f("skybridge/internal/hw.(*CPU).Load"),
		f("main.putFrame"),
	}
	if got := layerOf(stack); got != "hw" {
		t.Fatalf("self layer %s, want hw", got)
	}
	onStack := map[string]int64{}
	for _, l := range layersOnStack(stack) {
		onStack[l] += 10
	}
	if want := map[string]int64{"hw": 10, "blockdev": 10, "rest": 10}; !reflect.DeepEqual(onStack, want) {
		t.Fatalf("onStack %v, want %v", onStack, want)
	}
	if bad := storageTouched(onStack); len(bad) != 1 || !strings.HasPrefix(bad[0], "blockdev ") {
		t.Errorf("storageTouched = %q, want one blockdev failure", bad)
	}
	if bad := storageTouched(map[string]int64{"hw": 5, "kv": 5}); bad != nil {
		t.Errorf("storageTouched on a storage-free profile = %q", bad)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "hw.page_walks_per_op", "span.get.sim_p50_cyc", "9lives", "a-b"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "ünï", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(m.name) {
			t.Errorf("reported metric %q has an invalid name", m.name)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json's workloads and
// metric lists in step with what the harness runs and prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the harness: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestOracleFlagsPlantedMismatch(t *testing.T) {
	o := newOracle()
	o.wrote("k", "v1")
	want, ok := o.expect("k")
	if !o.checkRead("k", want, ok, "v1", true) || o.Mismatches != 0 {
		t.Fatal("a read of the last written value was flagged")
	}
	o.wrote("k", "v2")
	want, ok = o.expect("k")
	if o.checkRead("k", want, ok, "v1", true) {
		t.Fatal("a stale read passed")
	}
	if o.checkRead("k", want, ok, "", false) {
		t.Fatal("NotFound for a written key passed")
	}
	want, ok = o.expect("never-written")
	if o.checkRead("never-written", want, ok, "x", true) {
		t.Fatal("a value for a never-written key passed")
	}
	if o.Mismatches != 3 || !strings.Contains(o.First, `got "v1"`) {
		t.Fatalf("Mismatches=%d First=%q; want 3 and the first stale read described", o.Mismatches, o.First)
	}
}

func TestTenantSharesZipf(t *testing.T) {
	const tenants, total = 64, 1024
	a := tenantShares(tenants, total)
	sum, most := 0, 0
	for _, n := range a {
		if n < 1 {
			t.Fatal("a tenant got no ops")
		}
		sum += n
		most = max(most, n)
	}
	if sum != total || a[0] != most || most <= 4*total/tenants {
		t.Fatalf("shares sum to %d (want %d), tenant 0 has %d, largest %d (want tenant 0 the hog)", sum, total, a[0], most)
	}
}

// TestSmallRepsCorrectAndDeterministic runs every workload kind at a
// small size twice: the oracle, coverage and exactly-once checks must
// pass, and both reps must simulate identically. The second input set
// must simulate another stream.
func TestSmallRepsCorrectAndDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	small := map[string]load{
		"db-ycsb-a-sb":     dbLoad{mode: bench.ModeSB, readProp: 0.5, clients: 2, records: 600, warm: 20, window: 600},
		"db-ycsb-c-ipc":    dbLoad{mode: bench.ModeMT, readProp: 1, clients: 2, records: 600, warm: 20, window: 600},
		"kv-tenants-1024":  tenantsLoad{tenants: 64, serverCores: 2, clientCores: 2, keys: 4, perTenant: 20, think: 300_000, worlds: 2},
		"kv-skew-adaptive": skewLoad{serverCores: 4, clientCores: 4, clients: 8, records: 4096, warm: 100, window: 1000, inflight: 8, worlds: 2},
	}
	for _, wd := range workloads {
		t.Run(wd.name, func(t *testing.T) {
			wd := wd
			wd.load = small[wd.name]
			wd.clients = map[string]int{"kv-tenants-1024": 64, "kv-skew-adaptive": 8}[wd.name]
			if wd.clients == 0 {
				wd.clients = 2
			}
			var reps []*repOut
			for i := 0; i < 2; i++ {
				r, _, err := runRep(&wd, 7, 0, i == 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(r.problems) > 0 || r.failed > 0 {
					t.Fatalf("rep %d: failed=%d problems=%v", i, r.failed, r.problems)
				}
				reps = append(reps, r)
			}
			if reps[0].simKey() != reps[1].simKey() {
				t.Fatalf("untraced and traced reps simulated differently:\n%s\n%s", reps[0].simKey(), reps[1].simKey())
			}
			r, _, err := runRep(&wd, 7, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if wd.sets < 2 || r.digest == reps[0].digest {
				t.Fatalf("input set 1 of %d simulated the same latencies as set 0", wd.sets)
			}
		})
	}
}
