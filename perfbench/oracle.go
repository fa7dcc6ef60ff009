package main

import "fmt"

// oracle is a client's model of the keys it owns. Every workload gives
// each client a disjoint key set and never has two operations on one key
// in flight through channels that could reorder them, so the value a
// read must return is the last value the client wrote before submitting
// the read.
type oracle struct {
	model map[string]string
	// Mismatches counts reads that returned something other than the
	// model's value, and writes or reads that reported a failure.
	Mismatches int
	// First describes the first mismatch (empty while there is none).
	First string
}

func newOracle() *oracle { return &oracle{model: make(map[string]string)} }

// wrote records that key now holds val.
func (o *oracle) wrote(key, val string) { o.model[key] = val }

// expect returns the value a read of key submitted now must return.
func (o *oracle) expect(key string) (string, bool) {
	v, ok := o.model[key]
	return v, ok
}

// fail counts one wrong operation and keeps the first description.
func (o *oracle) fail(format string, args ...any) {
	o.Mismatches++
	if o.First == "" {
		o.First = fmt.Sprintf(format, args...)
	}
}

// checkRead compares a completed read against the value captured by
// expect when it was submitted. It returns false on a mismatch.
func (o *oracle) checkRead(key, want string, wantOK bool, got string, found bool) bool {
	switch {
	case found != wantOK:
		o.fail("read %q: found=%v, model says %v", key, found, wantOK)
	case found && got != want:
		o.fail("read %q: got %q, model holds %q", key, clip(got), clip(want))
	default:
		return true
	}
	return false
}

func clip(s string) string {
	if len(s) > 24 {
		return s[:24] + "..."
	}
	return s
}
