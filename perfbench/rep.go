package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"skybridge/internal/bench"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
	"skybridge/internal/sim"
)

// repCtx is one repetition of a workload: fresh simulated worlds set up,
// warmed, and measured over fixed simulated windows. A workload drives
// it through mark (end of a setup phase), open and close (the window
// boundaries, called from the simulated thread that crosses them),
// observe (one completed operation) and opSpan (a call into a layer). A
// rep may measure several worlds one after another; their windows add
// up.
type repCtx struct {
	seed   int64
	traced bool
	calls  *obs.CallObserver // phase attribution sink, traced reps only
	phases *obs.Breakdown    // calls that completed inside a window
	spans  *spanLog          // nil in untraced reps

	oracles []*oracle
	lat     [][]uint64 // per client, window ops in completion order
	kindLat map[string][]uint64

	// Setup phases: a chain of marks from the rep's start; windows are
	// cut out of the chain.
	t0       time.Time
	lastHost time.Duration
	lastSim  uint64
	simBase  uint64 // earlier worlds' simulated time, for the trace
	phaseMs  map[string]float64

	// The open window's starting point.
	inWindow  bool
	openHost  time.Duration
	openCPU   time.Duration
	openAlloc uint64
	openSim   uint64
	openCnt   map[string]uint64
	openFail  int

	// Sums over closed windows.
	windows  int
	hostWin  time.Duration
	cpuWin   time.Duration
	allocWin uint64
	simSpan  uint64
	delta    map[string]uint64
	failWin  int
	prof     bytes.Buffer
	layerNs  map[string]int64 // sampled CPU ns by layer, self
	stackNs  map[string]int64 // sampled CPU ns by layer anywhere on the stack
	profErr  error
}

func newRepCtx(seed int64, clients int, traced bool) *repCtx {
	rc := &repCtx{
		seed: seed, traced: traced,
		oracles: make([]*oracle, clients),
		lat:     make([][]uint64, clients),
		kindLat: make(map[string][]uint64),
		phaseMs: make(map[string]float64),
		delta:   make(map[string]uint64),
		layerNs: make(map[string]int64),
		stackNs: make(map[string]int64),
		t0:      time.Now(),
	}
	for i := range rc.oracles {
		rc.oracles[i] = newOracle()
	}
	if traced {
		// Only calls completing inside a window count: set-up, warm-up
		// and the closing of each pooled world are not window work.
		rc.phases = obs.NewBreakdown()
		rc.calls = &obs.CallObserver{Tap: func(r *obs.CallRecord) {
			if rc.inWindow {
				rc.phases.Observe(r)
			}
		}}
		rc.spans = &spanLog{}
	}
	return rc
}

func (rc *repCtx) since() time.Duration { return time.Since(rc.t0) }

// mark ends the setup phase called name at host now and simulated time
// sim; the next phase starts where this one ended.
func (rc *repCtx) mark(name string, sim uint64) {
	now := rc.since()
	rc.phaseMs[name] += float64(now-rc.lastHost) / 1e6
	rc.spans.add(span{name: name, host0: rc.lastHost, host1: now, sim0: rc.simBase + rc.lastSim, sim1: rc.simBase + sim})
	rc.lastHost, rc.lastSim = now, sim
}

// setup is the host time spent outside windows: boot, register,
// preload, bind and warm of every world.
func (rc *repCtx) setup() time.Duration {
	var ms float64
	for _, v := range rc.phaseMs {
		ms += v
	}
	return time.Duration(ms * 1e6)
}

// hostNow is the host offset for an operation span (0 when untraced, so
// untraced reps make no clock calls per operation).
func (rc *repCtx) hostNow() time.Duration {
	if rc.spans == nil {
		return 0
	}
	return rc.since()
}

// opSpan records one call into a layer by a window operation: its
// simulated cycles always (they feed span.<kind>.sim_p50_cyc), its span
// on both clocks when traced.
func (rc *repCtx) opSpan(kind string, client int, sim0, sim1 uint64, host0 time.Duration) {
	if !rc.inWindow {
		return
	}
	rc.kindLat[kind] = append(rc.kindLat[kind], sim1-sim0)
	if rc.spans != nil {
		rc.spans.add(span{name: kind, tid: client + 1, host0: host0, host1: rc.since(),
			sim0: rc.simBase + sim0, sim1: rc.simBase + sim1})
	}
}

// observe records one completed window operation's simulated latency.
func (rc *repCtx) observe(client int, cyc uint64) {
	if rc.inWindow {
		rc.lat[client] = append(rc.lat[client], cyc)
	}
}

// fail counts one failed operation: an error from a layer. Wrong
// results are counted by the client's oracle itself.
func (rc *repCtx) fail(client int, format string, args ...any) {
	rc.oracles[client].fail(format, args...)
}

// mismatches sums every client oracle's failure count.
func (rc *repCtx) mismatches() int {
	n := 0
	for _, o := range rc.oracles {
		n += o.Mismatches
	}
	return n
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// open starts a window at simulated time sim with counters cnt.
func (rc *repCtx) open(sim uint64, cnt map[string]uint64) {
	rc.mark("warm", sim)
	rc.inWindow = true
	rc.openSim, rc.openCnt = sim, cnt
	rc.openFail = rc.mismatches()
	rc.openAlloc = totalAlloc()
	if rc.traced {
		rc.prof.Reset()
		rc.profErr = pprof.StartCPUProfile(&rc.prof)
	}
	rc.openCPU = cpuTime()
	rc.openHost = rc.since()
}

// close ends the window at simulated time sim with counters cnt, adding
// it to the rep's totals.
func (rc *repCtx) close(sim uint64, cnt map[string]uint64) {
	now := rc.since()
	rc.hostWin += now - rc.openHost
	rc.cpuWin += cpuTime() - rc.openCPU
	if rc.traced && rc.profErr == nil {
		pprof.StopCPUProfile()
	}
	rc.allocWin += totalAlloc() - rc.openAlloc
	rc.inWindow = false
	rc.windows++
	rc.simSpan += sim - rc.openSim
	for k, v := range cnt {
		rc.delta[k] += v - rc.openCnt[k]
	}
	rc.failWin += rc.mismatches() - rc.openFail
	if rc.traced && rc.profErr == nil {
		self, onStack, err := profileLayers(rc.prof.Bytes())
		rc.profErr = err
		for l, v := range self {
			rc.layerNs[l] += v
		}
		for l, v := range onStack {
			rc.stackNs[l] += v
		}
	}
	// The next world's set-up starts here, on both clocks.
	rc.simBase += sim
	rc.lastHost, rc.lastSim = rc.since(), 0
}

// pooled measures n worlds one after another in one rep, world i from
// seed rc.seed*n+i. Garbage is collected between worlds, inside the next
// world's set-up, so every world starts from the same heap and peak RSS
// is one world's.
func pooled(rc *repCtx, n int, world func(rc *repCtx, seed int64) error) error {
	for i := 0; i < n; i++ {
		if i > 0 {
			runtime.GC()
		}
		if err := world(rc, rc.seed*int64(n)+int64(i)); err != nil {
			return fmt.Errorf("world %d: %w", i, err)
		}
	}
	return nil
}

// barrier is a simulated rendezvous of n client threads; the last to
// arrive runs last() before releasing the others at its own time.
type barrier struct {
	n, arrived int
	eng        *sim.Engine
	q          sim.WaitQueue
}

func newBarrier(eng *sim.Engine, n int) *barrier { return &barrier{n: n, eng: eng} }

func (b *barrier) wait(env *mk.Env, last func()) {
	env.T.Checkpoint()
	b.arrived++
	if b.arrived < b.n {
		b.q.Wait(env.T)
		env.Enter()
		return
	}
	b.arrived = 0
	if last != nil {
		last()
	}
	for b.q.Len() > 0 {
		b.q.WakeOne(b.eng, env.Now(), nil)
	}
}

// worldCounts reads the layer counters every world registers in its
// machine's metrics registry.
func worldCounts(w *bench.World) map[string]uint64 {
	o := w.K.Mach.Obs
	c := map[string]uint64{
		"hw.page_walks":               o.SumSuffix(".page_walks"),
		"hv.list_installs":            o.Value("hv.list_installs"),
		"hv.slot_evictions":           o.Value("hv.slot_evictions"),
		"mk.ipc_calls":                o.Value("mk.ipc_calls"),
		"mk.fastpaths":                o.Value("mk.fastpaths"),
		"mk.slowpaths":                o.Value("mk.slowpaths"),
		"mk.parks":                    o.Value("mk.wake_parks"),
		"core.direct_calls":           o.Value("core.direct_calls"),
		"core.ring_ops":               o.Value("core.ring_ops"),
		"core.ring_doorbells":         o.Value("core.ring_doorbells"),
		"core.ring_doorbells_skipped": o.Value("core.ring_doorbells_skipped"),
		"place.migrations":            o.Value("place.migrations"),
		"place.steals":                o.Value("place.steals"),
		"place.scale_downs":           o.Value("place.scale_downs"),
		"place.wrong_epoch":           o.Value("place.wrong_epoch"),
	}
	c["hw.memo_hits"], c["hw.memo_attempts"] = memoCounts(w.K.Mach)
	return c
}

// memoCounts reads the host walk memo's hit and attempt counts. The memo
// is a host-side accelerator slated for possible removal, so it is read
// by name: once Machine.HostMemoStats is gone both counts read 0 and the
// benchmark still builds.
func memoCounts(m *hw.Machine) (hits, attempts uint64) {
	meth := reflect.ValueOf(m).MethodByName("HostMemoStats")
	if !meth.IsValid() || meth.Type().NumIn() != 0 || meth.Type().NumOut() != 1 {
		return 0, 0
	}
	st := meth.Call(nil)[0]
	field := func(name string) uint64 {
		if st.Kind() != reflect.Struct {
			return 0
		}
		f := st.FieldByName(name)
		if !f.IsValid() || f.Kind() != reflect.Uint64 {
			return 0
		}
		return f.Uint()
	}
	hits = field("Hits")
	return hits, hits + field("Misses") + field("PermFallbacks")
}

// merge adds extra's counters into c.
func merge(c, extra map[string]uint64) map[string]uint64 {
	for k, v := range extra {
		c[k] = v
	}
	return c
}

// errFirst keeps the first error reported by simulated threads.
type errFirst struct{ err error }

func (e *errFirst) set(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

func (e *errFirst) setf(format string, args ...any) { e.set(fmt.Errorf(format, args...)) }
