// Command ringbench runs the experiment harness: for every figure of
// the paper (F1-F9) and every quantitative or structural claim (T1-T12)
// it regenerates the corresponding table, diagram or measurement and
// prints the report. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured notes.
//
// Usage:
//
//	ringbench [-exp F8|T1|...|all] [-list] [-json]
//
// With -json, reports are emitted as a JSON array of objects with the
// experiment id, title, host wall-clock nanoseconds, the experiment's
// machine-readable metrics (simulated cycles, SDW cache hit rate, ...),
// the report lines and the host they were measured on (CPU count,
// GOMAXPROCS, Go version, and the commit when the binary carries one)
// — for dashboards and regression tracking.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ringbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	id := fs.String("exp", "all", "experiment id (F1-F9, T1-T12) or all")
	list := fs.Bool("list", false, "list experiment ids")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, i := range exp.IDs() {
			fmt.Fprintln(stdout, i)
		}
		return 0
	}

	var results []*exp.Result
	if strings.EqualFold(*id, "all") {
		all, err := exp.RunAll()
		if err != nil {
			fmt.Fprintln(stderr, "ringbench:", err)
			return 1
		}
		results = all
	} else {
		r, err := exp.Run(strings.ToUpper(*id))
		if err != nil {
			fmt.Fprintln(stderr, "ringbench:", err)
			return 1
		}
		results = []*exp.Result{r}
	}

	if *asJSON {
		if err := exp.WriteJSON(stdout, results); err != nil {
			fmt.Fprintln(stderr, "ringbench:", err)
			return 1
		}
		return 0
	}
	for _, r := range results {
		fmt.Fprintln(stdout, r)
	}
	return 0
}
