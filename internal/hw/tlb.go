package hw

import "skybridge/internal/obs"

// TLBTag identifies the translation context an entry belongs to. Real
// Skylake hardware tags combined-mapping TLB entries with (VPID, PCID,
// EPTP); we carry exactly those three components. Because entries are
// tagged, neither a CR3 write with PCID enabled nor a VMFUNC EPTP switch
// with VPID enabled needs to flush the TLB — the property SkyBridge's 134-
// cycle address-space switch depends on (paper §2.2).
type TLBTag struct {
	VPID uint16
	PCID uint16
	EPTP HPA // root of the EPT active when the entry was filled
}

// TLBStats are the observable counters of a TLB.
type TLBStats struct {
	Lookups uint64
	Hits    uint64
	Misses  uint64
	Flushes uint64
}

type tlbEntry struct {
	tag   TLBTag
	vpn   uint64
	pfn   HPA
	flags PTFlags
	lru   uint64
}

// TLB is a fully-associative, LRU-replaced translation cache keyed by
// (tag, virtual page number) and mapping to a host-physical frame.
//
// Host-side layout: resident entries live in one compact slice scanned
// linearly. For the 64–128 entry capacities modeled here this beats a hash
// map (no hashing on the miss path, no per-entry allocation). A small
// direct-mapped index caches the slot each (tag, vpn) was last found in, so
// a repeat lookup costs one hash and one compare instead of a scan; index
// entries are validated against the live entry on every probe, so
// evictions, flushes, and FlushTag compaction need no index maintenance.
// Slot order and the index are pure host-side state: hit/miss outcomes,
// stats, and LRU eviction decisions (driven by the unique lru stamps) are
// identical to a plain linear scan — keys are unique in the TLB, so a
// validated index hit finds exactly the entry the scan would.
type TLB struct {
	capacity int
	entries  []tlbEntry
	idx      []int32 // direct-mapped (tag, vpn) -> entry slot + 1; 0 = empty
	clock    uint64
	Stats    TLBStats
}

// tlbIdxBits sizes the direct-mapped lookup index.
const tlbIdxBits = 8

// tlbHash spreads (tag, vpn) pairs over the index (Fibonacci hashing).
func tlbHash(tag TLBTag, vpn uint64) int {
	key := vpn ^ uint64(tag.VPID)<<48 ^ uint64(tag.PCID)<<32 ^ uint64(tag.EPTP)<<12
	return int((key * 0x9E3779B97F4A7C15) >> (64 - tlbIdxBits))
}

// NewTLB creates a TLB with the given entry capacity.
func NewTLB(capacity int) *TLB {
	return &TLB{
		capacity: capacity,
		entries:  make([]tlbEntry, 0, capacity),
		idx:      make([]int32, 1<<tlbIdxBits),
	}
}

// Lookup returns the cached translation for (tag, vpn) if present.
func (t *TLB) Lookup(tag TLBTag, vpn uint64) (HPA, PTFlags, bool) {
	t.clock++
	t.Stats.Lookups++
	h := tlbHash(tag, vpn)
	// Index probe: validated against the live entry, so a stale slot (the
	// entry was evicted, flushed, or compacted away) simply falls through to
	// the scan.
	if ix := t.idx[h]; ix > 0 && int(ix) <= len(t.entries) {
		if e := &t.entries[ix-1]; e.vpn == vpn && e.tag == tag {
			t.Stats.Hits++
			e.lru = t.clock
			return e.pfn, e.flags, true
		}
	}
	for i := range t.entries {
		e := &t.entries[i]
		if e.vpn == vpn && e.tag == tag {
			t.Stats.Hits++
			e.lru = t.clock
			t.idx[h] = int32(i + 1)
			return e.pfn, e.flags, true
		}
	}
	t.Stats.Misses++
	return 0, 0, false
}

// Insert caches a translation, evicting the least recently used entry if
// the TLB is full.
func (t *TLB) Insert(tag TLBTag, vpn uint64, pfn HPA, flags PTFlags) {
	t.clock++
	for i := range t.entries {
		e := &t.entries[i]
		if e.vpn == vpn && e.tag == tag {
			e.pfn, e.flags, e.lru = pfn, flags, t.clock
			return
		}
	}
	if len(t.entries) >= t.capacity {
		victim := 0
		for i := 1; i < len(t.entries); i++ {
			if t.entries[i].lru < t.entries[victim].lru {
				victim = i
			}
		}
		t.entries[victim] = tlbEntry{tag: tag, vpn: vpn, pfn: pfn, flags: flags, lru: t.clock}
		t.idx[tlbHash(tag, vpn)] = int32(victim + 1)
		return
	}
	t.entries = append(t.entries, tlbEntry{tag: tag, vpn: vpn, pfn: pfn, flags: flags, lru: t.clock})
	t.idx[tlbHash(tag, vpn)] = int32(len(t.entries))
}

// FlushAll invalidates every entry (a CR3 write with PCID disabled, or an
// INVEPT).
func (t *TLB) FlushAll() {
	t.Stats.Flushes++
	t.entries = t.entries[:0]
}

// FlushTag invalidates all entries with the given tag (INVVPID/INVPCID).
func (t *TLB) FlushTag(tag TLBTag) {
	t.Stats.Flushes++
	kept := t.entries[:0]
	for i := range t.entries {
		if t.entries[i].tag != tag {
			kept = append(kept, t.entries[i])
		}
	}
	t.entries = kept
}

// Len returns the number of resident entries.
func (t *TLB) Len() int { return len(t.entries) }

// ResetStats zeroes the counters without invalidating entries.
func (t *TLB) ResetStats() { t.Stats = TLBStats{} }

// BindObs registers this TLB's counters with the registry under
// "<prefix>.lookups" etc. (e.g. prefix "cpu0.ITLB").
func (t *TLB) BindObs(r *obs.Registry, prefix string) {
	r.Bind(prefix+".lookups", &t.Stats.Lookups)
	r.Bind(prefix+".hits", &t.Stats.Hits)
	r.Bind(prefix+".misses", &t.Stats.Misses)
	r.Bind(prefix+".flushes", &t.Stats.Flushes)
}
