// Package exp is the experiment harness: it regenerates, as text
// reports, every figure of the paper (F1-F9) and every quantitative or
// structural claim the paper makes in prose (T1-T12), per the index in
// DESIGN.md. The ringbench command prints the reports; EXPERIMENTS.md
// records paper-vs-measured for each; the benchmarks in bench_test.go
// time the same kernels under the Go benchmark harness.
package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Result is one experiment's report, and one entry of a BENCH artifact:
// ringbench and ringload both emit arrays of it. The field order is the
// JSON key order.
type Result struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// HostNs is the wall-clock time the experiment took on the host, in
	// nanoseconds, stamped by Run.
	HostNs int64 `json:"host_ns"`
	// Metrics holds the experiment's machine-readable measurements —
	// simulated cycles, cache hit rates and the like — for ringbench
	// -json. Nil when the experiment reports prose only.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Lines   []string           `json:"lines"`

	// The host the result was measured on, stamped by WriteJSON, so a
	// number can be compared only with numbers from a like host. Commit
	// is the source revision when the binary was built from a checkout.
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit,omitempty"`
}

// WriteJSON stamps each result with the host it ran on and writes the
// results to w as an indented JSON array.
func WriteJSON(w io.Writer, results []*Result) error {
	commit := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	for _, r := range results {
		r.HostCPUs, r.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
		r.GoVersion, r.Commit = runtime.Version(), commit
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

func (r *Result) addf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Result) add(lines ...string) {
	r.Lines = append(r.Lines, lines...)
}

// metric records one machine-readable measurement.
func (r *Result) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// String renders the report.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// runner produces one experiment's result.
type runner struct {
	title string
	run   func() (*Result, error)
}

var registry = map[string]runner{}

func register(id, title string, run func(r *Result) error) {
	registry[id] = runner{title: title, run: func() (*Result, error) {
		r := &Result{ID: id, Title: title}
		start := time.Now()
		if err := run(r); err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		r.HostNs = time.Since(start).Nanoseconds()
		return r, nil
	}}
}

// IDs returns all experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
	}
	return r.run()
}

// RunAll executes every experiment in id order.
func RunAll() ([]*Result, error) {
	var out []*Result
	for _, id := range IDs() {
		r, err := Run(id)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
