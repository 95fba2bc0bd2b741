package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// runSmall runs a workload on a shrunken input for a fraction of a
// second.
func runSmall(t *testing.T, name string, o options, traced bool) *result {
	t.Helper()
	w, err := newWorkload(name, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(context.Background(), w, runConfig{
		seconds:  400 * time.Millisecond,
		traced:   traced,
		traceOut: t.TempDir(),
		log:      io.Discard,
		name:     name,
		seed:     o.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

type spec struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smallRecords shrinks each workload's input for the tests. kv-coded-rw
// keeps its full 2^14 pairs: smaller tables leave no key whose coded
// read falls back.
var smallRecords = map[string]int{"pim-point": 1 << 12, "cpu-sharded-small": 512, "kv-coded-rw": 0}

// checkFailed fails the test unless the run is correct and failed as a
// correct run does: not at all, except on kv-coded-rw, where each round
// of ten operations reads the fallback key once and its two Puts are
// read back after the window, so exactly one operation in twelve fails
// on the known coded fallback.
func checkFailed(t *testing.T, name string, res *result) {
	t.Helper()
	failedOK := res.Failed == 0
	if name == "kv-coded-rw" {
		failedOK = res.Failed*12 == res.Attempted
	}
	if !res.Correct || res.Attempted == 0 || !failedOK {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestWorkloadsRunCorrect: every workload runs to its end with every
// answer checked and none failed but the known coded fallbacks, and
// reports every end-to-end metric of BENCHMARK.json with a non-zero
// value.
func TestWorkloadsRunCorrect(t *testing.T) {
	s := loadSpec(t)
	for name, records := range smallRecords {
		t.Run(name, func(t *testing.T) {
			res := runSmall(t, name, options{seed: 3, records: records}, false)
			checkFailed(t, name, res)
			for _, m := range s.EndToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 {
					t.Errorf("metric %s = %+v, want a positive value", m.Name, v)
				}
			}
		})
	}
}

// TestFlippedByteFails: one party serving a database with a flipped
// byte corrupts about half of all answers; the reference check catches
// them.
func TestFlippedByteFails(t *testing.T) {
	res := runSmall(t, "cpu-sharded-small", options{seed: 4, records: 512, flipByte: true}, false)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("correct=%v failed=%d of %d: the flipped byte went unnoticed", res.Correct, res.Failed, res.Attempted)
	}
}

// TestUnappliedPutFails: a Put the key→value model does not apply makes
// the read-back of that key after the window disagree with the model.
func TestUnappliedPutFails(t *testing.T) {
	res := runSmall(t, "kv-coded-rw", options{seed: 5, dropPut: true}, false)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("correct=%v failed=%d of %d: the unapplied Put went unnoticed", res.Correct, res.Failed, res.Attempted)
	}
}

// TestTracedRunReportsEveryLayer: a traced run reports every per-layer
// metric of BENCHMARK.json, and the metrics each workload exists to
// measure come out above zero: the PIM engine and its dpXOR phase on
// pim-point, the CPU engine elsewhere.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	s := loadSpec(t)
	positive := map[string][]string{
		"pim-point":         {"impir.query_ms", "pim.dpxor_ms", "dpf.eval_ms"},
		"cpu-sharded-small": {"cpupir.query_ms", "dpf.eval_ms"},
		"kv-coded-rw":       {"cpupir.query_ms", "keyword.put_read_ms", "batchcode.fallbacks_per_kop"},
	}
	for name, records := range smallRecords {
		t.Run(name, func(t *testing.T) {
			res := runSmall(t, name, options{seed: 6, records: records}, true)
			checkFailed(t, name, res)
			for _, name := range positive[name] {
				if v := res.Metrics[name].Value; v <= 0 {
					t.Errorf("%s = %v, want above 0", name, v)
				}
			}
			for _, m := range s.PerLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			if len(res.Metrics) != len(s.PerLayer) {
				t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(s.PerLayer))
			}
		})
	}
}
