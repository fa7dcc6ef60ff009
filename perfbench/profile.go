package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"path"
	"slices"
	"strings"
)

// Host self time per layer, from a runtime/pprof CPU profile. The
// profile is a gzipped protocol buffer; the few fields attribution needs
// are decoded here with the standard library alone.

// hostLayers are the layers host self time is split over: the repo's
// package directories under internal/ that the workloads execute, the Go
// runtime split into gc (allocation, marking, sweeping, write barriers)
// and sched (goroutine handoff, futex, timers), and rest for everything
// else (the harness, its ycsb input generators, unmeasured packages).
var hostLayers = []string{
	"hw", "sim", "hv", "mk", "core", "svc", "kv", "fs", "blockdev", "db", "obs",
	"gc", "sched", "rest",
}

const modulePrefix = "skybridge/internal/"

// frame is one (possibly inlined) function on a sampled stack.
type frame struct {
	fn, file string
}

// layerOf attributes one sample's stack, leaf first, to a layer. A frame
// in a repo package names its layer. Runtime frames classified as gc or
// sched claim the sample for that runtime part. Every other frame
// (memmove, map access, fmt, ...) is transparent: its time belongs to
// whichever repo layer called it.
func layerOf(stack []frame) string {
	sawRuntime := false
	for _, f := range stack {
		if l, ok := repoLayer(f.fn); ok {
			return l
		}
		if strings.HasPrefix(f.fn, "runtime.") {
			sawRuntime = true
			switch {
			case isGCFrame(f):
				return "gc"
			case isSchedFrame(f):
				return "sched"
			}
		}
	}
	if sawRuntime {
		return "sched"
	}
	return "rest"
}

// repoLayer maps a function in this module to its layer; functions
// outside the module report false.
func repoLayer(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "rest", true
	}
	if !strings.HasPrefix(fn, modulePrefix) {
		return "", false
	}
	dir := fn[len(modulePrefix):]
	if i := strings.IndexAny(dir, "./"); i >= 0 {
		dir = dir[:i]
	}
	for _, l := range hostLayers {
		if l == dir {
			return l, true
		}
	}
	return "rest", true
}

var gcFilePrefixes = []string{
	"mgc", "mbitmap", "malloc", "mheap", "mcache", "mcentral", "mwbbuf",
	"mspanset", "mpagealloc", "mpagecache", "mpallocbits", "mfinal",
	"mfixalloc", "mbarrier", "mem_linux", "mcheckmark", "arena",
}

var gcFuncPrefixes = []string{
	"runtime.gcWriteBarrier", "runtime.wbBufFlush", "runtime.gcBgMarkWorker",
	"runtime.bgsweep", "runtime.bgscavenge",
}

func isGCFrame(f frame) bool {
	base := path.Base(f.file)
	for _, p := range gcFilePrefixes {
		if strings.HasPrefix(base, p) {
			return true
		}
	}
	for _, p := range gcFuncPrefixes {
		if strings.HasPrefix(f.fn, p) {
			return true
		}
	}
	return false
}

var schedFiles = map[string]bool{
	"proc.go": true, "chan.go": true, "select.go": true, "sema.go": true,
	"lock_futex.go": true, "lock_spinbit.go": true, "os_linux.go": true,
	"sys_linux_amd64.s": true, "preempt.go": true, "signal_unix.go": true,
	"sigqueue.go": true, "cpuprof.go": true, "time.go": true,
	"netpoll.go": true, "netpoll_epoll.go": true, "stack.go": true,
	"coro.go": true,
}

var schedFuncs = map[string]bool{
	"runtime.mcall": true, "runtime.systemstack": true, "runtime.gogo": true,
	"runtime.morestack": true, "runtime.futex": true, "runtime.usleep": true,
	"runtime.osyield": true, "runtime.procyield": true, "runtime.goexit": true,
	"runtime.mstart": true,
}

func isSchedFrame(f frame) bool {
	return schedFiles[path.Base(f.file)] || schedFuncs[f.fn]
}

// layersOnStack lists each repo layer with a frame anywhere on a
// sample's stack, once.
func layersOnStack(stack []frame) []string {
	var ls []string
	for _, f := range stack {
		if l, ok := repoLayer(f.fn); ok && !slices.Contains(ls, l) {
			ls = append(ls, l)
		}
	}
	return ls
}

// profileLayers decodes a gzipped CPU profile and sums sampled CPU
// nanoseconds per layer: self by layerOf, and onStack for every layer
// with a frame anywhere on the sample's stack.
func profileLayers(gz []byte) (self, onStack map[string]int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, nil, err
	}
	self = make(map[string]int64, len(hostLayers))
	onStack = make(map[string]int64, len(hostLayers))
	for _, s := range p.samples {
		var stack []frame
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				fn := p.funcs[fid]
				stack = append(stack, frame{fn: p.str(fn.name), file: p.str(fn.file)})
			}
		}
		if p.valueIdx < len(s.values) {
			v := s.values[p.valueIdx]
			self[layerOf(stack)] += v
			for _, l := range layersOnStack(stack) {
				onStack[l] += v
			}
		}
	}
	return self, onStack, nil
}

// profile holds the decoded fields of a pprof Profile message.
type profile struct {
	strings  []string
	funcs    map[uint64]pfunc
	locLines map[uint64][]uint64 // location id -> function ids, leaf first
	samples  []psample
	types    []uint64 // sample_type string indexes (type names)
	valueIdx int      // which sample value holds CPU nanoseconds
}

type pfunc struct{ name, file uint64 }

type psample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// decodeProfile reads the Profile fields: sample_type (1), sample (2),
// location (4), function (5), string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{funcs: make(map[uint64]pfunc), locLines: make(map[uint64][]uint64)}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			return eachField(sub, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					p.types = append(p.types, v)
				}
				return nil
			})
		case 2:
			var s psample
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, sub)
				case 2:
					for _, x := range appendVarints(nil, wire, v, sub) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num, _ int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5:
			var id uint64
			var f pfunc
			err := eachField(sub, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			})
			p.funcs[id] = f
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.valueIdx = len(p.types) - 1
	for i, t := range p.types {
		if p.str(t) == "cpu" {
			p.valueIdx = i
		}
	}
	if p.valueIdx < 0 {
		return nil, fmt.Errorf("profile: no sample types")
	}
	return p, nil
}

// appendVarints appends a repeated varint field that may arrive packed
// (wire type 2) or one element at a time (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, sub []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}

// eachField walks one protobuf message, handing each field's number,
// wire type, and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return fmt.Errorf("profile: bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
