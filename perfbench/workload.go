package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	impir "github.com/impir/impir"
)

// options selects a workload's input. The zero values of the fields
// past seed are the benchmark's own configuration; the others exist for
// the benchmark's tests and for the README's reference figures.
type options struct {
	seed int64
	// records shrinks the generated input (0 = the workload's size).
	records int
	// flipByte flips a byte of record 0 on one server of party 1 once
	// the clients have connected; every answer whose share selects that
	// row (about half of them) is then wrong.
	flipByte bool
	// dropPut makes the key→value model ignore the first acknowledged
	// Put, so the next read of that key disagrees with the model.
	dropPut bool
	// uncoded serves the keyword table without the batch code.
	uncoded bool
}

// workload is one benchmark input: a generated data set, the deployment
// that serves it, and the operation mix the closed loop drives.
type workload interface {
	// clients is the number of closed-loop clients.
	clients() int
	// setup builds the deployment from the generated input: database
	// construction (build), then every Server.Load (load). ring sizes
	// each server's trace ring.
	setup(ctx context.Context, ring int) (*deployment, setupTimes, error)
	// open connects one store per client. traced sessions carry a
	// client Tracer per client and the benchmark's own spans.
	open(ctx context.Context, dep *deployment, traced bool) (session, error)
	// layers measures the standalone layer probes at this workload's
	// geometry.
	layers() (map[string]metric, error)
	// describe states the input and deployment, once set up.
	describe() string
}

// session is the set of clients of one open deployment.
type session interface {
	// round runs one whole round of operations for client c.
	round(ctx context.Context, c int, rng *rand.Rand, rec *recorder)
	// checkShape issues a short sequence of operations from one client
	// and fails unless every operation moved the same number of bytes
	// on the wire.
	checkShape(ctx context.Context, dep *deployment, rec *recorder) error
	// stats sums the clients' store counters.
	stats() impir.StoreStats
	// tracers returns each client's tracer (nil when untraced).
	tracers() []*impir.Tracer
	close()
}

// verifier is implemented by sessions that check, after a window, what
// its operations left behind.
type verifier interface {
	verify(ctx context.Context, rec *recorder)
}

// kvCounters is implemented by sessions over a keyword store.
type kvCounters interface {
	kvStats() impir.KVStats
}

type setupTimes struct{ build, load, open time.Duration }

func (t setupTimes) total() time.Duration { return t.build + t.load + t.open }

var workloads = map[string]func(options) (workload, error){
	"pim-point":         newPIMPoint,
	"cpu-sharded-small": newCPUSharded,
	"kv-coded-rw":       newKVCoded,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func newWorkload(name string, o options) (workload, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
	}
	return mk(o)
}

// genRecords is the benchmark's own copy of a seeded input: n records
// of size bytes, flat.
func genRecords(seed int64, stream uint64, n, size int) []byte {
	rng := rand.New(rand.NewPCG(uint64(seed), stream))
	out := make([]byte, n*size)
	for i := 0; i+8 <= len(out); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
	return out
}

// provenance stamps every output with what produced it.
func provenance() string {
	ref := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			ref = rev[:min(12, len(rev))] + dirty
		}
	}
	return fmt.Sprintf("git=%s go=%s cpu=%q nproc=%d gomaxprocs=%d",
		ref, runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
