// Command perfbench is the closed-loop PIR benchmark: it builds one
// workload's deployment in this process over loopback TCP from a seeded
// generated input, drives it with a closed loop, checks every answer,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
//	go run . --workload pim-point --seed 1 --seconds 30 --trace 0
//	go run . skew --seed 1 --seconds 5      # reproduce the version-skew fault
//
// See README.md for the workloads, the metrics and the layers they map to.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupSeconds is how long a run repeats set-up before its window.
const setupSeconds = 5

// minSetupReps is the fewest set-ups a run takes the median of.
const minSetupReps = 5

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "skew" {
		return runSkew(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the generated input and of the operation streams")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	uncoded := fs.Bool("uncoded", false, "kv-coded-rw: serve the plain keyword table without the batch code (reference figure only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	w, err := newWorkload(*name, options{seed: *seed, uncoded: *uncoded})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	prov := provenance()
	fmt.Fprintf(stderr, "perfbench: %s seed=%d seconds=%g trace=%d %s\n", *name, *seed, *seconds, *trace, prov)

	cfg := runConfig{
		seconds:  time.Duration(*seconds * float64(time.Second)),
		setupFor: setupSeconds * time.Second,
		traced:   *trace == 1,
		traceOut: filepath.Join(".bench_build", "traces"),
		log:      stderr,
		seed:     *seed,
		name:     *name,
	}
	res, err := execute(context.Background(), w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# %s\n%s\n", prov, line)
	return 0
}
