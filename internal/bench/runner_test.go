package bench

import (
	"bytes"
	"strings"
	"testing"

	"skybridge/internal/obs"
)

// testOpts are small, fast knob settings for runner tests.
var testOpts = Options{
	Records: 50, Ops: 10, KVOps: 32,
	Clients: 2, OpsPerKind: 4, Preload: 20,
	Scale: 8,
}

// runSuite runs the given selection and returns (stdout, metrics, trace)
// serializations.
func runSuite(t *testing.T, sel map[string]bool, jobs int) (string, []byte, []byte) {
	t.Helper()
	tr := obs.NewTracer()
	s := NewSession(tr)
	var out bytes.Buffer
	if err := RunAll(sel, testOpts, jobs, s, &out); err != nil {
		t.Fatal(err)
	}
	var mb, tb bytes.Buffer
	if err := s.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	return out.String(), mb.Bytes(), tb.Bytes()
}

// TestRunAllParallelByteIdentical: every worker count must produce the
// same stdout, metrics, and trace, byte for byte — attribution is
// per-unit, never per-worker.
func TestRunAllParallelByteIdentical(t *testing.T) {
	sel := map[string]bool{"table2": true, "fig7": true, "fig2": true}
	out1, m1, t1 := runSuite(t, sel, 1)
	for _, jobs := range []int{2, 4} {
		outN, mN, tN := runSuite(t, sel, jobs)
		if outN != out1 {
			t.Errorf("-j %d stdout differs from -j 1", jobs)
		}
		if !bytes.Equal(mN, m1) {
			t.Errorf("-j %d metrics differ from -j 1", jobs)
		}
		if !bytes.Equal(tN, t1) {
			t.Errorf("-j %d trace differs from -j 1", jobs)
		}
	}
	if !strings.Contains(out1, "Table 2") {
		t.Errorf("table2 output missing from:\n%s", out1)
	}
}

// TestCellJobsByteIdentical: the sweep experiments (scaling, async) and
// the table6 corpus scan partition into independent cells on the SetJobs
// worker pool; every worker count must reproduce the serial run's stdout,
// metrics, and trace byte for byte.
func TestCellJobsByteIdentical(t *testing.T) {
	sel := map[string]bool{"scaling": true, "async": true, "table6": true}
	prev := SetJobs(1)
	t.Cleanup(func() { SetJobs(prev) })
	out1, m1, t1 := runSuite(t, sel, 1)
	for _, jobs := range []int{3, 8} {
		SetJobs(jobs)
		outN, mN, tN := runSuite(t, sel, 1)
		if outN != out1 {
			t.Errorf("SetJobs(%d) stdout differs from serial", jobs)
		}
		if !bytes.Equal(mN, m1) {
			t.Errorf("SetJobs(%d) metrics differ from serial", jobs)
		}
		if !bytes.Equal(tN, t1) {
			t.Errorf("SetJobs(%d) trace differs from serial", jobs)
		}
	}
}

// TestRunAllSelectionAndErrors covers the runner's edges: empty selection
// errors, unknown selection yields no units, jobs clamping works.
func TestRunAllSelectionAndErrors(t *testing.T) {
	if err := RunAll(map[string]bool{"nope": true}, testOpts, 1, NewSession(nil), nil); err == nil {
		t.Error("unknown-only selection did not error")
	}
	// jobs far beyond the unit count is clamped, not an error.
	var out bytes.Buffer
	if err := RunAll(map[string]bool{"table2": true}, testOpts, 64, NewSession(nil), &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("no output for table2")
	}
}

// TestExperimentNamesStable pins the selector list (the skybench -run
// vocabulary) in catalog order.
func TestExperimentNamesStable(t *testing.T) {
	want := []string{"table2", "fig7", "table1", "fig2", "fig8", "table4",
		"fig9", "fig10", "fig11", "table5", "table6", "ablations", "scaling", "async", "dbscale", "tenants", "skew"}
	got := ExperimentNames()
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}
