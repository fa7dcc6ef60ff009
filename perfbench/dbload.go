package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"skybridge/internal/bench"
	"skybridge/internal/db"
	"skybridge/internal/fs"
	"skybridge/internal/mk"
	"skybridge/internal/ycsb"
)

// dbLoad is the SQLite -> xv6fs -> RAM-disk stack of Figures 9-11 with
// the paper's FS configuration (one big lock, synchronous device IO):
// one closed-loop YCSB client per simulated core, each on its own
// database file. Rows are 800 bytes so every table overflows the pager's
// 64-page cache and reads reach the file system.
type dbLoad struct {
	mode     bench.ServerMode
	readProp float64 // 0.5: YCSB-A (reads and updates); 1: YCSB-C
	clients  int     // one per simulated core
	records  int     // rows per client table
	warm     int     // ops per client before the window
	window   int     // ops per client in the window
}

const dbFieldLen = 800

func (d dbLoad) windowOps() int { return d.clients * d.window }

func (d dbLoad) workload() ycsb.Workload {
	w := ycsb.WorkloadA(d.records)
	if d.readProp == 1 {
		w = ycsb.WorkloadC(d.records)
	}
	w.FieldLength = dbFieldLen
	return w
}

func (d dbLoad) run(rc *repCtx) error {
	wl := d.workload()
	w, err := bench.NewWorld(bench.WorldConfig{
		Flavor: mk.SeL4, Cores: d.clients, MemBytes: 8 << 30,
		SkyBridge: d.mode == bench.ModeSB, Calls: rc.calls,
	})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	k := w.K
	rc.mark("boot", simNow(k.Mach))
	st, err := bench.BuildDBStackCfg(w, d.mode, fs.Config{}, false)
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	rc.mark("register", simNow(k.Mach))

	dbs := make([]*db.DB, d.clients)
	counts := func() map[string]uint64 {
		acq, cont, wait, _ := st.FS.LockStats()
		hits, misses, commits := st.FS.Cache()
		c := map[string]uint64{
			"fs.lock_acq": acq, "fs.lock_contended": cont, "fs.lock_wait_cyc": wait,
			"fs.commits": commits, "fs.bcache_hits": hits, "fs.bcache_misses": misses,
		}
		for _, d := range dbs {
			p := d.Pager()
			c["db.pager_hits"] += p.Hits
			c["db.pager_misses"] += p.Misses
			c["db.pager_fs_reads"] += p.FsReads
			c["db.pager_fs_writes"] += p.FsWrites
		}
		return merge(worldCounts(w), c)
	}

	// Every client runs bind -> preload -> warm -> window in one engine
	// run, meeting at a barrier between phases: multi-threaded IPC
	// servers block on their endpoints between requests, so the engine
	// only drains once the last client closes them.
	var errs errFirst
	gate := newBarrier(w.Eng, d.clients)
	for c := 0; c < d.clients; c++ {
		proc := k.NewProcess(fmt.Sprintf("ycsb%d", c))
		proc.Spawn("client", k.Mach.Cores[c], func(env *mk.Env) {
			orc := rc.oracles[c]
			conn, err := st.FSConn(env, proc)
			if err != nil {
				errs.setf("client %d fs conn: %w", c, err)
				return
			}
			dbc, err := db.Open(env, proc, &fs.Client{Conn: conn}, fmt.Sprintf("y%d", c))
			if err != nil {
				errs.setf("client %d open: %w", c, err)
				return
			}
			if _, err := dbc.Exec(env, "CREATE TABLE u (id INTEGER PRIMARY KEY, f TEXT)"); err != nil {
				errs.setf("client %d create: %w", c, err)
				return
			}
			dbs[c] = dbc
			tab, _ := dbc.TableByName("u")
			gate.wait(env, func() { rc.mark("bind", env.Now()) })

			// Preload in 64-row transactions so the journal protocol
			// does not dominate set-up.
			if err := dbc.Begin(env); err != nil {
				errs.setf("client %d begin: %w", c, err)
				return
			}
			for i := 0; i < d.records; i++ {
				val := ycsb.RecordValue(wl, int64(i))
				if _, err := tab.Insert(env, []db.Value{db.IntValue(int64(i)), db.TextValue(val)}); err != nil {
					errs.setf("client %d preload row %d: %w", c, i, err)
					return
				}
				orc.wrote(strconv.Itoa(i), val)
				if (i+1)%64 == 0 {
					if err := dbc.Commit(env); err == nil {
						err = dbc.Begin(env)
					}
					if err != nil {
						errs.setf("client %d preload commit: %w", c, err)
						return
					}
				}
			}
			if err := dbc.Commit(env); err != nil {
				errs.setf("client %d preload commit: %w", c, err)
				return
			}
			gate.wait(env, func() { rc.mark("preload", env.Now()) })

			// Keys are scrambled zipfian, as YCSB's default generator:
			// a seeded permutation of the rows takes the zipfian ranks, so
			// the hot rows sit on different pages for each seed.
			gen := ycsb.NewGenerator(wl, mixSeed(rc.seed, c))
			perm := rand.New(rand.NewSource(mixSeed(rc.seed, c) + 1)).Perm(d.records)
			op := func() {
				o := gen.Next()
				o.Key = int64(perm[o.Key])
				key := strconv.FormatInt(o.Key, 10)
				t0, h0 := env.Now(), rc.hostNow()
				switch o.Kind {
				case ycsb.OpRead:
					want, wantOK := orc.expect(key)
					vals, found, err := tab.Get(env, o.Key)
					rc.opSpan("get", c, t0, env.Now(), h0)
					switch {
					case err != nil:
						rc.fail(c, "client %d get %d: %v", c, o.Key, err)
					case found && len(vals) != 2:
						rc.fail(c, "client %d get %d: %d columns", c, o.Key, len(vals))
					case found:
						orc.checkRead(key, want, wantOK, vals[1].Text, true)
					default:
						orc.checkRead(key, want, wantOK, "", false)
					}
				case ycsb.OpUpdate:
					ok, err := tab.Update(env, o.Key, []db.Value{db.IntValue(o.Key), db.TextValue(o.Value)})
					rc.opSpan("update", c, t0, env.Now(), h0)
					switch {
					case err != nil:
						rc.fail(c, "client %d update %d: %v", c, o.Key, err)
					case !ok:
						rc.fail(c, "client %d update %d: row missing", c, o.Key)
					default:
						orc.wrote(key, o.Value)
					}
				default:
					rc.fail(c, "client %d: unexpected op kind %d", c, o.Kind)
				}
				rc.observe(c, env.Now()-t0)
			}
			for i := 0; i < d.warm; i++ {
				op()
			}
			gate.wait(env, func() { rc.open(env.Now(), counts()) })
			for i := 0; i < d.window; i++ {
				op()
			}
			gate.wait(env, func() {
				rc.close(env.Now(), counts())
				st.Close()
			})
		})
	}
	if err := w.Eng.Run(); err != nil {
		errs.set(err)
	}
	return errs.err
}

// mixSeed derives client c's generator seed from the run's seed.
func mixSeed(seed int64, c int) int64 {
	return seed*1_000_003 + int64(c)*7919 + 1
}
