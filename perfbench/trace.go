package main

import (
	"encoding/json"
	"os"
	"time"

	"skybridge/internal/hw"
)

// Spans recorded by the harness around its calls into each layer, on
// both clocks: host time (what producing the result costs) and simulated
// cycles (the result). They are kept in memory and written as one
// Chrome trace-event file when the run ends.

// maxOpSpans caps per-operation spans so a long traced window cannot
// grow the trace without bound; setup spans are always kept.
const maxOpSpans = 50_000

type span struct {
	name       string
	tid        int // 0 for setup phases, 1+client for operations
	host0      time.Duration
	host1      time.Duration
	sim0, sim1 uint64
}

type spanLog struct {
	spans []span
	ops   int // operation spans kept
}

// add records a span; nil logs (untraced runs) record nothing.
func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	if s.tid > 0 {
		if l.ops >= maxOpSpans {
			return
		}
		l.ops++
	}
	l.spans = append(l.spans, s)
}

// simNow is the furthest-ahead core clock: the simulated time a setup
// phase ends at.
func simNow(m *hw.Machine) uint64 {
	var t uint64
	for _, c := range m.Cores {
		if c.Clock > t {
			t = c.Clock
		}
	}
	return t
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// write emits the spans as Chrome trace JSON: process 1 on the host
// clock (microseconds), process 2 on the simulated clock (cycles shown
// as microseconds at the modelled 4 GHz).
func (l *spanLog) write(file string) error {
	evs := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "host clock"}},
		{Name: "process_name", Ph: "M", Pid: 2, Args: map[string]any{"name": "simulated clock (4 GHz)"}},
	}
	cycUS := float64(hw.ClockHz) / 1e6
	for _, s := range l.spans {
		args := map[string]any{
			"host_us": float64(s.host1-s.host0) / 1e3,
			"sim_cyc": s.sim1 - s.sim0,
		}
		evs = append(evs,
			traceEvent{Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
				Ts: float64(s.host0) / 1e3, Dur: float64(s.host1-s.host0) / 1e3, Args: args},
			traceEvent{Name: s.name, Ph: "X", Pid: 2, Tid: s.tid,
				Ts: float64(s.sim0) / cycUS, Dur: float64(s.sim1-s.sim0) / cycUS, Args: args})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(file, buf, 0o644)
}
