package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"regexp"
	"sort"
)

// tailMinBeyond is how many samples must lie above a reported tail
// percentile: fewer and the percentile is one or two outliers.
const tailMinBeyond = 10

// counted is a multiset of samples: its distinct values ascending, each
// with how often it occurs. Simulated latencies repeat a lot (on
// kv-skew-adaptive, the workload with the most samples, a tenth of a
// window's values are distinct), so a run keeps its input sets' samples
// this way instead of whole, and its peak RSS stays the simulator's.
type counted struct {
	vals []uint64
	ns   []int
}

// countOf counts samples, leaving the input alone.
func countOf(samples []uint64) counted {
	s := append([]uint64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var c counted
	for i, v := range s {
		if i > 0 && v == s[i-1] {
			c.ns[len(c.ns)-1]++
			continue
		}
		c.vals = append(c.vals, v)
		c.ns = append(c.ns, 1)
	}
	return c
}

// add returns the union of c and o.
func (c counted) add(o counted) counted {
	var u counted
	i, j := 0, 0
	for i < len(c.vals) || j < len(o.vals) {
		switch {
		case j == len(o.vals) || (i < len(c.vals) && c.vals[i] < o.vals[j]):
			u.vals, u.ns = append(u.vals, c.vals[i]), append(u.ns, c.ns[i])
			i++
		case i == len(c.vals) || o.vals[j] < c.vals[i]:
			u.vals, u.ns = append(u.vals, o.vals[j]), append(u.ns, o.ns[j])
			j++
		default:
			u.vals, u.ns = append(u.vals, c.vals[i]), append(u.ns, c.ns[i]+o.ns[j])
			i, j = i+1, j+1
		}
	}
	return u
}

// len is how many samples c holds.
func (c counted) len() int {
	n := 0
	for _, k := range c.ns {
		n += k
	}
	return n
}

// sum is the samples' total.
func (c counted) sum() uint64 {
	var t uint64
	for i, v := range c.vals {
		t += v * uint64(c.ns[i])
	}
	return t
}

// percentile returns the nearest-rank q-quantile of c and how many
// samples lie strictly beyond its rank.
func percentile(c counted, q float64) (v uint64, beyond int, err error) {
	n := c.len()
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	seen := 0
	for i, k := range c.ns {
		if seen += k; seen >= rank {
			v = c.vals[i]
			break
		}
	}
	return v, n - rank, nil
}

// tailPercentile is percentile with the reporting rule for tails: at
// least tailMinBeyond samples beyond the rank, else an error naming the
// sample count.
func tailPercentile(c counted, q float64) (uint64, int, error) {
	v, beyond, err := percentile(c, q)
	if err != nil {
		return 0, 0, err
	}
	if beyond < tailMinBeyond {
		return 0, beyond, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d",
			q*100, c.len(), beyond, tailMinBeyond)
	}
	return v, beyond, nil
}

// digest is FNV-1a over the samples in recorded order: two runs that
// simulate the same per-op latencies in the same order print the same
// digest.
func digest(samples []uint64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range samples {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// median returns the middle value (mean of the two middles for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metricName is the result schema's name rule.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s may name a metric.
func validName(s string) bool { return metricName.MatchString(s) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
