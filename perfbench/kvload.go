package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"skybridge/internal/bench"
	"skybridge/internal/core"
	"skybridge/internal/kv"
	"skybridge/internal/mk"
	"skybridge/internal/svc"
	"skybridge/internal/ycsb"
)

// kvStatusOK reports whether a KV status is one a correct store returns.
func kvStatusOK(s uint64) bool { return s == kv.StatusOK || s == kv.StatusNotFound }

// putFrame builds an OpPut payload: u16 key length | key | value.
func putFrame(key, val string) []byte {
	frame := make([]byte, 2+len(key)+len(val))
	frame[0], frame[1] = byte(len(key)), byte(len(key)>>8)
	copy(frame[2:], key)
	copy(frame[2+len(key):], val)
	return frame
}

// tenantsLoad is the multi-tenant frontend: every tenant its own process,
// calling key, EPTP binding, keyspace prefix and SPSC ring, multiplexed
// onto one directory drain per server core. Load is zipfian over tenants:
// tenants whose share is more than twice the uniform one run closed-loop
// at full ring credit, the rest are paced open-loop one op per think gap.
type tenantsLoad struct {
	tenants     int
	serverCores int
	clientCores int
	keys        int    // preloaded keys per tenant
	perTenant   int    // uniform-share window ops per tenant
	think       uint64 // cold tenant gap between ops (cycles)
	// worlds is how many independent worlds one rep measures, each with
	// its own input stream: the cold tenants' start offsets move one
	// world's mean latency by several percent with the seed.
	worlds int
}

func (t tenantsLoad) worldOps() int  { return t.tenants * t.perTenant }
func (t tenantsLoad) windowOps() int { return t.worlds * t.worldOps() }

// tenantShares gives each tenant its window op count, zipf(0.99) by
// tenant number with largest-remainder rounding and one op minimum:
// tenant 0 is the hog and the tail stays cold, as in the tenants sweep.
// The rank order is fixed so that every seed puts the same load on each
// frontend; the seed varies what each tenant does.
func tenantShares(tenants, total int) []int {
	weights := make([]float64, tenants)
	var sum float64
	for r := range weights {
		weights[r] = 1 / math.Pow(float64(r+1), 0.99)
		sum += weights[r]
	}
	spare := total - tenants
	ops := make([]int, tenants)
	type rem struct {
		r    int
		frac float64
	}
	rems := make([]rem, tenants)
	given := 0
	for r, w := range weights {
		exact := float64(spare) * w / sum
		ops[r] = 1 + int(exact)
		given += int(exact)
		rems[r] = rem{r, exact - math.Floor(exact)}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; i < spare-given; i++ {
		ops[rems[i].r]++
	}
	return ops
}

func (t tenantsLoad) run(rc *repCtx) error { return pooled(rc, t.worlds, t.runWorld) }

// runWorld sets up and measures one world whose inputs come from seed.
func (t tenantsLoad) runWorld(rc *repCtx, seed int64) error {
	w, err := bench.NewWorld(bench.WorldConfig{
		Flavor: mk.SeL4, Cores: t.serverCores + t.clientCores, SkyBridge: true, Calls: rc.calls,
	})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	k := w.K
	rc.mark("boot", simNow(k.Mach))

	opsOf := tenantShares(t.tenants, t.worldOps())
	perFE := (t.tenants + t.serverCores - 1) / t.serverCores
	// The drain spins longer on larger directories: parking costs an
	// O(tenants) pre-park rescan (the same policy as the tenants sweep).
	pol := mk.WakePolicy{SpinBudget: mk.DefaultSpinBudget + 16*uint64(perFE)}
	stores := kv.NewStoreShards(k, "fe", t.serverCores, 2*t.keys*perFE+128, 4+32+2*32)
	keyOf := func(tenant, j int) string { return kv.TenantKey(tenant, fmt.Sprintf("k%d", j)) }

	var errs errFirst
	for f := 0; f < t.serverCores; f++ {
		stores[f].Proc.Spawn("preload", k.Mach.Cores[f], func(env *mk.Env) {
			for tn := f; tn < t.tenants; tn += t.serverCores {
				for j := 0; j < t.keys; j++ {
					val := fmt.Sprintf("value-%04d-%02d-%024d", tn, j, 0)
					if err := stores[f].Preload(env, []byte(keyOf(tn, j)), []byte(val)); err != nil {
						errs.setf("preload tenant %d: %w", tn, err)
						return
					}
					rc.oracles[tn].wrote(keyOf(tn, j), val)
				}
			}
		})
	}
	if err := w.Eng.Run(); err != nil {
		errs.set(err)
	}
	if errs.err != nil {
		return errs.err
	}
	rc.mark("preload", simNow(k.Mach))

	// Ring tenant IDs are per-frontend open order; keyspace prefixes
	// carry the global tenant number, translated for the guard.
	fes := make([]*svc.Frontend, t.serverCores)
	localToGlobal := make([][]int, t.serverCores)
	for f := 0; f < t.serverCores; f++ {
		localToGlobal[f] = make([]int, perFE+1)
		stores[f].Proc.Spawn("reg", k.Mach.Cores[f], func(env *mk.Env) {
			guard := kv.TenantGuard(stores[f].Handler())
			fe, err := svc.NewFrontend(w.SB, env, perFE+1, core.FrontendConfig{Pol: pol},
				func(env *mk.Env, tenant int, req svc.Req) svc.Resp {
					return guard(env, localToGlobal[f][tenant], req)
				})
			if err != nil {
				errs.setf("frontend %d: %w", f, err)
				return
			}
			fes[f] = fe
		})
	}
	if err := w.Eng.Run(); err != nil {
		errs.set(err)
	}
	if errs.err != nil {
		return errs.err
	}
	rc.mark("register", simNow(k.Mach))

	procs := make([]*mk.Process, t.tenants)
	conns := make([]*svc.TenantConn, t.tenants)
	clientCore := func(tn int) int { return t.serverCores + tn%t.clientCores }
	for tn := range procs {
		procs[tn] = k.NewProcess(fmt.Sprintf("t%04d", tn))
	}
	for tn := range procs {
		procs[tn].Spawn("bind", k.Mach.Cores[clientCore(tn)], func(env *mk.Env) {
			tc, err := fes[tn%t.serverCores].OpenTenant(env, 0, 2+64)
			if err != nil {
				errs.setf("tenant %d bind: %w", tn, err)
				return
			}
			conns[tn] = tc
		})
	}
	if err := w.Eng.Run(); err != nil {
		errs.set(err)
	}
	if errs.err != nil {
		return errs.err
	}
	for tn, tc := range conns {
		localToGlobal[tn%t.serverCores][tc.Tenant] = tn
	}
	rc.mark("bind", simNow(k.Mach))

	counts := func() map[string]uint64 { return worldCounts(w) }
	for f, fe := range fes {
		stores[f].Proc.Spawn("drain", k.Mach.Cores[f], func(env *mk.Env) {
			if err := fe.Serve(env); err != nil {
				errs.setf("frontend %d drain: %w", f, err)
			}
		})
	}
	gate := newBarrier(w.Eng, t.tenants)
	for tn := range procs {
		procs[tn].Spawn("drive", k.Mach.Cores[clientCore(tn)], func(env *mk.Env) {
			t.drive(rc, env, seed, tn, conns[tn], opsOf[tn], keyOf, gate, func() {
				rc.close(env.Now(), counts())
				for _, fe := range fes {
					fe.Close(env)
				}
			}, counts)
		})
	}
	if err := w.Eng.Run(); err != nil {
		errs.set(err)
	}
	return errs.err
}

// drive runs one tenant: a warm phase of a quarter of its window ops,
// the window barrier, its window ops, and the closing barrier.
func (t tenantsLoad) drive(rc *repCtx, env *mk.Env, seed int64, tn int, tc *svc.TenantConn, ops int,
	keyOf func(int, int) string, gate *barrier, closeWindow func(), counts func() map[string]uint64) {
	orc := rc.oracles[tn]
	rng := rand.New(rand.NewSource(mixSeed(seed, tn)))
	qd := tc.Ring.QD
	hot := ops > 2*t.perTenant
	type pending struct {
		key, want string
		wantOK    bool
		get       bool
		t0        uint64
	}
	inflight := make([]pending, qd)
	// seq numbers submissions over the ring's life, as Completion.Seq does.
	var seq uint32
	submitted, completed := 0, 0
	submit := func(due uint64) {
		j := rng.Intn(t.keys)
		key := keyOf(tn, j)
		p := pending{key: key, t0: due}
		var req svc.Req
		if rng.Intn(4) == 3 {
			val := fmt.Sprintf("value-%04d-%02d-%024d", tn, j, rng.Int63n(1e18))
			orc.wrote(key, val)
			req = svc.Req{Op: kv.OpPut, Data: putFrame(key, val)}
		} else {
			p.get = true
			p.want, p.wantOK = orc.expect(key)
			req = svc.Req{Op: kv.OpGet, Data: []byte(key)}
		}
		inflight[seq%uint32(qd)] = p
		s0, h0 := env.Now(), rc.hostNow()
		err := tc.Submit(env, req)
		if err == nil {
			seq++
			err = tc.Flush(env)
		}
		rc.opSpan("submit", tn, s0, env.Now(), h0)
		submitted++
		if err != nil {
			rc.fail(tn, "tenant %d submit: %v", tn, err)
			completed++ // never reaped: count it done so the tenant finishes
		}
	}
	reap := func() {
		r0, h0 := env.Now(), rc.hostNow()
		cs, err := tc.Ring.Reap(env, 1)
		rc.opSpan("reap", tn, r0, env.Now(), h0)
		if err != nil {
			rc.fail(tn, "tenant %d reap: %v", tn, err)
			completed = submitted
			return
		}
		for _, c := range cs {
			p := inflight[c.Seq%uint32(qd)]
			switch {
			case !kvStatusOK(c.Regs[0]):
				rc.fail(tn, "tenant %d status %d", tn, c.Regs[0])
			case p.get:
				orc.checkRead(p.key, p.want, p.wantOK, string(c.Data), c.Regs[0] == kv.StatusOK)
			case c.Regs[0] != kv.StatusOK:
				rc.fail(tn, "tenant %d put %q: status %d", tn, p.key, c.Regs[0])
			}
			rc.observe(tn, env.Now()-p.t0)
			completed++
		}
	}
	// Cold tenants spread their window ops over the same simulated span.
	think := t.think * uint64(t.perTenant) / uint64(ops)
	// phase runs n ops: hot tenants keep the ring at full credit and time
	// each op from its submit; cold tenants time each op from its due
	// time, so a late start counts against the op.
	phase := func(n int) {
		submitted, completed = 0, 0
		start := env.Now() + uint64(rng.Int63n(4096))*think/4096
		for completed < n {
			if hot {
				for submitted < n && tc.Inflight() < qd {
					submit(env.Now())
				}
			} else {
				due := start + uint64(submitted)*think
				if now := env.Now(); now < due {
					env.Sleep(due - now)
				}
				submit(due)
			}
			if completed < n {
				reap()
			}
		}
	}
	phase(max(1, ops/4))
	gate.wait(env, func() { rc.open(env.Now(), counts()) })
	phase(ops)
	gate.wait(env, closeWindow)
}

// skewShifts is how many times the hot window moves over a client's warm
// and window ops.
const skewShifts = 4

// skewLoad is adaptive placement under a shifting hotspot: one server
// process holds every KV shard behind one frontend drain per server
// core, and a core.Director migrates hot shards, steals work between
// drains and parks idle cores. Clients route through svc.Router and
// resubmit the wrong-epoch rejects a migration strands.
type skewLoad struct {
	serverCores int
	clientCores int
	clients     int
	records     int // keyspace, range-partitioned over 2*serverCores shards
	warm        int // ops per client before the window
	window      int // ops per client in the window
	inflight    int // per-client closed-loop window
	// worlds is how many independent worlds one rep measures, each with
	// its own input stream. The director's control loop is chaotic: one
	// world's throughput moves by a tenth and its p99 by a quarter with
	// the seed, so a rep pools many short worlds.
	worlds int
}

func (s skewLoad) windowOps() int { return s.worlds * s.clients * s.window }

func (s skewLoad) run(rc *repCtx) error { return pooled(rc, s.worlds, s.runWorld) }

// runWorld sets up and measures one world whose inputs come from seed.
func (s skewLoad) runWorld(rc *repCtx, seed int64) error {
	w, err := bench.NewWorld(bench.WorldConfig{
		Flavor: mk.SeL4, Cores: s.serverCores + s.clientCores, SkyBridge: true, Calls: rc.calls,
	})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	k := w.K
	rc.mark("boot", simNow(k.Mach))

	shards := 2 * s.serverCores
	perShard := (s.records + shards - 1) / shards
	shardOf := func(key int64) int { return int(key * int64(shards) / int64(s.records)) }
	keyName := func(key int64) string { return fmt.Sprintf("user%06d", key) }
	server := k.NewProcess("placed")
	stores := kv.NewStoreSet(server, shards, 2*perShard+64, 4+16+48)
	var errs errFirst
	server.Spawn("preload", k.Mach.Cores[0], func(env *mk.Env) {
		for j := int64(0); j < int64(s.records); j++ {
			val := fmt.Sprintf("value-%06d-%016d", j, 0)
			if err := stores[shardOf(j)].Preload(env, []byte(keyName(j)), []byte(val)); err != nil {
				errs.setf("preload %d: %w", j, err)
				return
			}
			rc.oracles[int(j)%s.clients].wrote(keyName(j), val)
		}
	})
	if err := w.Eng.Run(); err != nil {
		errs.set(err)
	}
	if errs.err != nil {
		return errs.err
	}
	rc.mark("preload", simNow(k.Mach))

	fes := make([]*svc.Frontend, s.serverCores)
	coreFEs := make([]*core.Frontend, s.serverCores)
	var d *core.Director
	server.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		for f := 0; f < s.serverCores; f++ {
			ph := kv.PlacedHandler(stores, func(shard int) (bool, uint64) {
				ok, ep := d.Owns(f, shard)
				if !ok {
					d.NoteReject()
				}
				return ok, ep
			}, func(shard int) { d.NoteOp(shard) })
			fe, err := svc.NewFrontend(w.SB, env, s.clients+1, core.FrontendConfig{},
				func(env *mk.Env, _ int, req svc.Req) svc.Resp { return ph(env, req) })
			if err != nil {
				errs.setf("frontend %d: %w", f, err)
				return
			}
			fes[f], coreFEs[f] = fe, fe.FE
		}
		var err error
		d, err = w.SB.NewDirector(env, core.DirectorConfig{
			Shards: shards, ControlPeriod: 20_000, LowWater: 1, HighWater: 6,
			Acquire: func(env *mk.Env, shard int) int { return stores[shard].MigrateWarm(env) },
			Obs:     k.Mach.Obs,
		}, coreFEs)
		if err != nil {
			errs.setf("director: %w", err)
		}
	})
	if err := w.Eng.Run(); err != nil {
		errs.set(err)
	}
	if errs.err != nil {
		return errs.err
	}
	rc.mark("register", simNow(k.Mach))

	procs := make([]*mk.Process, s.clients)
	routers := make([]*svc.Router, s.clients)
	clientCore := func(c int) int { return s.serverCores + c%s.clientCores }
	for c := range procs {
		procs[c] = k.NewProcess(fmt.Sprintf("cl%02d", c))
	}
	for c := range procs {
		procs[c].Spawn("bind", k.Mach.Cores[clientCore(c)], func(env *mk.Env) {
			rt, err := svc.OpenRouter(env, d, fes, s.inflight, 2+16+48)
			if err != nil {
				errs.setf("client %d bind: %w", c, err)
				return
			}
			routers[c] = rt
		})
	}
	if err := w.Eng.Run(); err != nil {
		errs.set(err)
	}
	if errs.err != nil {
		return errs.err
	}
	rc.mark("bind", simNow(k.Mach))

	counts := func() map[string]uint64 {
		c := worldCounts(w)
		for _, rt := range routers {
			c["svc.retries"] += rt.Retries
		}
		return c
	}
	for f, fe := range fes {
		server.Spawn("drain", k.Mach.Cores[f], func(env *mk.Env) {
			if err := fe.FE.Serve(env); err != nil {
				errs.setf("drain %d: %w", f, err)
			}
		})
	}
	gate := newBarrier(w.Eng, s.clients)
	for c := range procs {
		procs[c].Spawn("drive", k.Mach.Cores[clientCore(c)], func(env *mk.Env) {
			s.drive(rc, env, seed, c, routers[c], shardOf, keyName, gate, func() {
				rc.close(env.Now(), counts())
				for _, fe := range fes {
					fe.FE.Close(env)
				}
			}, counts)
		})
	}
	if err := w.Eng.Run(); err != nil {
		errs.set(err)
	}
	return errs.err
}

// drive runs one routing client. Client c owns the keys congruent to c
// modulo the client count, and never has two ops on one key in flight:
// a wrong-epoch retry can overtake later submissions, so per-key order
// is kept by holding an op whose key is busy until that key completes.
func (s skewLoad) drive(rc *repCtx, env *mk.Env, seed int64, c int, rt *svc.Router, shardOf func(int64) int,
	keyName func(int64) string, gate *barrier, closeWindow func(), counts func() map[string]uint64) {
	orc := rc.oracles[c]
	owned := s.records / s.clients
	gen := ycsb.NewGenerator(ycsb.Workload{
		Name: "skew", RecordCount: owned, FieldLength: 16,
		ReadProp: 0.75, UpdateProp: 0.25,
		RequestDist: ycsb.DistShifting, HotDataFrac: 0.25, HotOpFrac: 0.9,
		HotShiftEvery: (s.warm + s.window + skewShifts - 1) / skewShifts,
	}, mixSeed(seed, c))

	type pendingOp struct {
		key       int64
		put       bool
		val, want string
		wantOK    bool
		t0        uint64
	}
	fifos := make([][]pendingOp, len(rt.Conns))
	var retryQ []pendingOp
	var held *pendingOp
	busy := make(map[int64]bool)
	inflight, submitted, completed := 0, 0, 0

	submitOne := func(po pendingOp) error {
		name := keyName(po.key)
		req := svc.Req{Op: kv.OpGet, Data: []byte(name)}
		if po.put {
			req = svc.Req{Op: kv.OpPut, Data: putFrame(name, po.val)}
		}
		s0, h0 := env.Now(), rc.hostNow()
		slot, err := rt.Submit(env, shardOf(po.key), req)
		if err == nil {
			fifos[slot] = append(fifos[slot], po)
			inflight++
			err = rt.Conns[slot].Flush(env)
		}
		rc.opSpan("submit", c, s0, env.Now(), h0)
		return err
	}
	reapSlot := func(slot int) error {
		r0, h0 := env.Now(), rc.hostNow()
		cs, err := rt.Conns[slot].Ring.Reap(env, 1)
		rc.opSpan("reap", c, r0, env.Now(), h0)
		if err != nil {
			return err
		}
		for _, comp := range cs {
			po := fifos[slot][0]
			fifos[slot] = fifos[slot][1:]
			inflight--
			st := comp.Regs[0]
			if st == kv.StatusWrongEpoch {
				rt.NoteRetry()
				retryQ = append(retryQ, po)
				continue
			}
			switch {
			case !kvStatusOK(st):
				rc.fail(c, "client %d key %d: status %d", c, po.key, st)
			case po.put:
				if st != kv.StatusOK {
					rc.fail(c, "client %d put %d: status %d", c, po.key, st)
				}
			default:
				orc.checkRead(keyName(po.key), po.want, po.wantOK, string(comp.Data), st == kv.StatusOK)
			}
			delete(busy, po.key)
			rc.observe(c, env.Now()-po.t0)
			completed++
		}
		return nil
	}
	reapOne := func() error {
		for slot := range fifos {
			if len(fifos[slot]) > 0 {
				return reapSlot(slot)
			}
		}
		return nil
	}
	submitRetrying := func(po pendingOp) error {
		for {
			err := submitOne(po)
			if !errors.Is(err, core.ErrRingFull) {
				return err
			}
			if err := reapOne(); err != nil {
				return err
			}
		}
	}
	// launch reads or writes the model at submit time, which is execution
	// order for this key: no other op on it is in flight.
	launch := func(po pendingOp) error {
		name := keyName(po.key)
		if po.put {
			orc.wrote(name, po.val)
		} else {
			po.want, po.wantOK = orc.expect(name)
		}
		po.t0 = env.Now()
		busy[po.key] = true
		return submitRetrying(po)
	}
	phase := func(n int) error {
		submitted, completed = 0, 0
		for completed < n {
			var err error
			switch {
			case len(retryQ) > 0:
				po := retryQ[0]
				retryQ = retryQ[1:]
				err = submitRetrying(po)
			case held != nil && !busy[held.key] && inflight < s.inflight:
				po := *held
				held = nil
				err = launch(po)
			case held == nil && submitted < n && inflight < s.inflight:
				op := gen.Next()
				key := op.Key*int64(s.clients) + int64(c)
				po := pendingOp{key: key, put: op.Kind == ycsb.OpUpdate}
				if po.put {
					po.val = fmt.Sprintf("value-%06d-%016x", key, uint64(seed)<<32|uint64(submitted))
				}
				submitted++
				if busy[key] {
					held = &po
					continue
				}
				err = launch(po)
			default:
				err = reapOne()
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := phase(s.warm); err != nil {
		rc.fail(c, "client %d warm: %v", c, err)
	}
	gate.wait(env, func() { rc.open(env.Now(), counts()) })
	if err := phase(s.window); err != nil {
		rc.fail(c, "client %d: %v", c, err)
	}
	gate.wait(env, closeWindow)
}
