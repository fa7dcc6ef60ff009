package bench

import (
	"encoding/json"
	"io"
)

// HostBenchResult records the host wall-clock cost of the experiment suite,
// serial and on a worker pool. Simulated results are byte-identical in both
// runs; only the wall-clock seconds differ.
type HostBenchResult struct {
	// Host environment the numbers were taken on.
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`

	// Experiments is the selector list the timings cover.
	Experiments []string `json:"experiments"`

	SerialSec   float64 `json:"serial_sec"`
	Jobs        int     `json:"jobs"`
	ParallelSec float64 `json:"parallel_sec"`
	// ParallelSpeedup = serial / parallel.
	ParallelSpeedup float64 `json:"parallel_speedup"`
}

// WriteHostBench serializes r as the BENCH_host.json document.
func WriteHostBench(w io.Writer, r HostBenchResult) error {
	if r.ParallelSec > 0 {
		r.ParallelSpeedup = r.SerialSec / r.ParallelSec
	}
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
