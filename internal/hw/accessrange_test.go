package hw

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// newChain builds a tiny L1->L2 chain so bursts wrap sets and evict often.
func newChain() *Cache {
	l2 := NewCache(CacheConfig{Name: "l2", Size: 16 * 1024, Ways: 4, Latency: 12}, nil, 200)
	return NewCache(CacheConfig{Name: "l1", Size: 2 * 1024, Ways: 2, Latency: 4}, l2, 0)
}

// chainOp is one random burst against the chain.
type chainOp struct {
	addr  HPA
	lines int
	write bool
}

// setContents returns each set's ways sorted by (tag, lru) — the canonical
// per-set contents. Way slot POSITIONS are host-side layout (AccessRange
// skips the MRU swap and fills may land in different free slots), but the
// multiset of (tag, lru) pairs per set fully determines every simulated
// decision and must match exactly.
func setContents(c *Cache) [][]cacheWay {
	nsets := len(c.tags) / c.assoc
	out := make([][]cacheWay, nsets)
	for s := 0; s < nsets; s++ {
		set := make([]cacheWay, c.assoc)
		for w := range set {
			set[w] = cacheWay{tag: uint64(c.tags[s*c.assoc+w]), lru: c.lrus[s*c.assoc+w]}
		}
		sort.Slice(set, func(i, j int) bool {
			if set[i].tag != set[j].tag {
				return set[i].tag < set[j].tag
			}
			return set[i].lru < set[j].lru
		})
		out[s] = set
	}
	return out
}

// TestAccessRangeExactEquivalence drives two identical cache chains with
// the same access stream — one charging bursts per line, one via
// AccessRange — and requires identical costs, stats, clocks, and per-set
// contents (tags AND LRU stamps) at every level after every operation.
// The tiny geometry forces same-set wraparound, misses mid-burst, and
// evictions, exercising the fallback path; repeating bursts from a small
// pool exercises memo replay and stale-memo fallback.
func TestAccessRangeExactEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(0xB10C))
	perLine := newChain()
	ranged := newChain()

	// A small pool of recurring bursts (IPC payload buffers in steady state)
	// interleaved with fresh random bursts that displace lines and stale the
	// memos.
	var pool []chainOp
	for i := 0; i < 12; i++ {
		pool = append(pool, chainOp{
			addr:  HPA(rng.Intn(1 << 14)),
			lines: 1 + rng.Intn(80), // up to 80 lines: wraps the 16-set L1
			write: rng.Intn(2) == 0,
		})
	}
	var ops []chainOp
	for i := 0; i < 4000; i++ {
		if rng.Intn(4) > 0 {
			ops = append(ops, pool[rng.Intn(len(pool))])
			continue
		}
		ops = append(ops, chainOp{
			addr:  HPA(rng.Intn(1 << 16)),
			lines: 1 + rng.Intn(80),
			write: rng.Intn(2) == 0,
		})
	}
	for i, op := range ops {
		var costA, costB uint64
		base := op.addr.LineBase()
		for l := 0; l < op.lines; l++ {
			costA += perLine.Access(base+HPA(l)<<LineShift, op.write)
		}
		costB += ranged.AccessRange(base, op.lines, op.write)
		if costA != costB {
			t.Fatalf("op %d (%d lines at %#x): cost %d (per-line) != %d (ranged)", i, op.lines, uint64(op.addr), costA, costB)
		}
		for lvl, pair := range [][2]*Cache{{perLine, ranged}, {perLine.next, ranged.next}} {
			a, b := pair[0], pair[1]
			if a.Stats != b.Stats {
				t.Fatalf("op %d level %d: stats %+v != %+v", i, lvl, a.Stats, b.Stats)
			}
			if a.clock != b.clock {
				t.Fatalf("op %d level %d: clock %d != %d", i, lvl, a.clock, b.clock)
			}
			ca, cb := setContents(a), setContents(b)
			for s := range ca {
				for w := range ca[s] {
					if ca[s][w] != cb[s][w] {
						t.Fatalf("op %d level %d set %d: contents %+v != %+v", i, lvl, s, ca[s], cb[s])
					}
				}
			}
		}
	}
}

// perLineCPU is the charging oracle for CPU: ReadData, WriteData and
// TouchCode translate exactly as the CPU does but charge one Cache.Access
// per line spanned instead of one Cache.AccessRange per page chunk.
type perLineCPU struct{ *CPU }

func (p perLineCPU) ReadData(va VA, buf []byte, n int) error {
	return p.charge(va, buf, n, AccessRead)
}

func (p perLineCPU) WriteData(va VA, buf []byte, n int) error {
	return p.charge(va, buf, n, AccessWrite)
}

func (p perLineCPU) TouchCode(va VA, n int) error {
	return p.charge(va, nil, n, AccessExec)
}

func (p perLineCPU) charge(va VA, buf []byte, n int, acc Access) error {
	c := p.CPU
	tlb, cache, count := c.DTLB, c.L1D, &c.Counters.DataAccesses
	if acc == AccessExec {
		tlb, cache, count = c.ITLB, c.L1I, &c.Counters.CodeFetches
	}
	for off := 0; off < n; {
		chunk := min(int(PageSize-(va+VA(off)).PageOff()), n-off)
		hpa, err := c.translate(va+VA(off), acc, tlb)
		if err != nil {
			return err
		}
		for line := hpa.LineBase(); line <= (hpa + HPA(chunk) - 1).LineBase(); line += LineSize {
			c.Clock += cache.Access(line, acc == AccessWrite)
			*count++
		}
		switch {
		case acc == AccessRead && buf != nil:
			c.mach.Mem.Read(hpa, buf[off:off+chunk])
		case acc == AccessWrite && buf != nil:
			c.mach.Mem.Write(hpa, buf[off:off+chunk])
		case acc == AccessWrite:
			c.mach.Mem.Write(hpa, zeroPage[:chunk])
		}
		off += chunk
	}
	return nil
}

// burstCPU is the charged-access surface driveBlocks exercises.
type burstCPU interface {
	ReadData(va VA, buf []byte, n int) error
	WriteData(va VA, buf []byte, n int) error
	TouchCode(va VA, n int) error
}

// burstWorld builds a machine with two user-mode cores and 16 mapped pages
// of scratch VA space.
func burstWorld(t *testing.T) (*Machine, *PageTable) {
	t.Helper()
	m := NewMachine(MachineConfig{Cores: 2, MemBytes: 1 << 26, DTLBEntries: 4})
	pt := NewPageTable(m.Mem)
	for _, cpu := range m.Cores {
		cpu.CR3 = pt.Root
		cpu.Mode = ModeUser
	}
	if err := pt.MapRange(0x40_0000, 0x8000, 16, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	return m, pt
}

// driveBlocks performs a mixed burst workload on core 0 through c: multi-KB
// reads and writes spanning page boundaries, single-byte touches, code
// touches, a TLB shootdown landing between two halves of a block-sized
// access, and a frame recycle under an in-flight sequence. It returns
// every byte the reads observed.
func driveBlocks(t *testing.T, m *Machine, pt *PageTable, c burstCPU) []byte {
	t.Helper()
	var seen []byte
	buf := make([]byte, 8192)
	for i := range buf {
		buf[i] = byte(i)
	}
	// 4KB-aligned page burst (the dominant shape in the suite).
	if err := c.WriteData(0x40_0000, buf[:4096], 4096); err != nil {
		t.Fatal(err)
	}
	// Cross-page 8KB read, unaligned start.
	if err := c.ReadData(0x40_0040, buf, 8192); err != nil {
		t.Fatal(err)
	}
	seen = append(seen, buf...)
	// Sub-line and line-straddling accesses.
	if err := c.WriteData(0x40_1037, buf[:8], 8); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadData(0x40_103f, nil, 2); err != nil {
		t.Fatal(err)
	}
	// Modeled write with no buffer: zeroes memory.
	if err := c.WriteData(0x40_3010, nil, 100); err != nil {
		t.Fatal(err)
	}
	// Code-side burst through L1I.
	if err := c.TouchCode(0x40_2000, 4096+128); err != nil {
		t.Fatal(err)
	}

	// TLB shootdown spanning a block boundary: read the first half of a
	// 2-page block, shoot down both TLBs machine-wide, then read the
	// second half, which must re-walk.
	if err := c.ReadData(0x40_4000, nil, 4096); err != nil {
		t.Fatal(err)
	}
	for _, cpu := range m.Cores {
		cpu.DTLB.FlushAll()
		cpu.ITLB.FlushAll()
	}
	if err := c.ReadData(0x40_5000, nil, 4096); err != nil {
		t.Fatal(err)
	}

	// Frame recycle under the access stream: remap the VA to a fresh frame
	// mid-sequence; the next burst must translate to the new frame and
	// charge accordingly.
	if err := pt.Map(0x40_6000, 0xA000, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteData(0x40_6000, buf[:4096], 4096); err != nil {
		t.Fatal(err)
	}
	pt.Unmap(0x40_6000)
	for _, cpu := range m.Cores {
		cpu.DTLB.FlushAll()
	}
	if err := pt.Map(0x40_6000, 0xC000, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadData(0x40_6000, buf[:4096], 4096); err != nil {
		t.Fatal(err)
	}
	seen = append(seen, buf[:4096]...)
	if err := c.ReadData(0x40_3000, buf[:256], 256); err != nil {
		t.Fatal(err)
	}
	seen = append(seen, buf[:256]...)

	// Fault mid-stream: an unmapped VA faults after the mapped prefix has
	// been charged.
	if err := c.WriteData(0x41_0000, buf[:64], 64); err == nil {
		t.Fatal("expected page fault on unmapped VA")
	}
	return seen
}

// TestBlockChargeLockstep runs the burst workload through the CPU's
// block-granular charging and through the per-line oracle on two identical
// machines, and requires identical data, clocks, counters, cache stats and
// per-set cache contents — including across a TLB shootdown that splits a
// block and a frame recycle under the access stream.
func TestBlockChargeLockstep(t *testing.T) {
	mRange, ptRange := burstWorld(t)
	mLine, ptLine := burstWorld(t)
	seenRange := driveBlocks(t, mRange, ptRange, mRange.Cores[0])
	seenLine := driveBlocks(t, mLine, ptLine, perLineCPU{mLine.Cores[0]})
	if !bytes.Equal(seenRange, seenLine) {
		t.Fatal("block charging read different bytes than the per-line oracle")
	}
	cr, cl := mRange.Cores[0], mLine.Cores[0]
	if cr.Clock != cl.Clock || cr.Counters != cl.Counters {
		t.Fatalf("clock/counters diverged:\n range: %d %+v\n  line: %d %+v", cr.Clock, cr.Counters, cl.Clock, cl.Counters)
	}
	for _, pair := range [][2]*Cache{{cr.L1D, cl.L1D}, {cr.L1I, cl.L1I}, {cr.L2, cl.L2}, {mRange.L3, mLine.L3}} {
		a, b := pair[0], pair[1]
		if a.Stats != b.Stats || a.clock != b.clock {
			t.Fatalf("%s: stats %+v clock %d, oracle %+v clock %d", a.cfg.Name, a.Stats, a.clock, b.Stats, b.clock)
		}
		ca, cb := setContents(a), setContents(b)
		for s := range ca {
			for w := range ca[s] {
				if ca[s][w] != cb[s][w] {
					t.Fatalf("%s set %d: contents %+v, oracle %+v", a.cfg.Name, s, ca[s], cb[s])
				}
			}
		}
	}
}
