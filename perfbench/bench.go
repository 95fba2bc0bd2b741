package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	impir "github.com/impir/impir"
	"github.com/impir/impir/internal/metrics"
)

type runConfig struct {
	seconds time.Duration
	// setupFor is how long set-up is repeated, at least minSetupReps
	// times, to take its median.
	setupFor time.Duration
	traced   bool
	traceOut string
	log      io.Writer
	// seed names the span dump of a traced run.
	seed int64
	name string
}

type opKind uint8

const (
	opRetrieve opKind = iota
	opGet
	opPut
)

func (k opKind) String() string {
	return [...]string{"retrieve", "get", "put"}[k]
}

type opRecord struct {
	kind   opKind
	dur    time.Duration
	failed bool
}

// recorder collects one client's operations. Only its own goroutine
// writes it while a loop runs.
type recorder struct {
	ops   []opRecord
	wrong int64      // answers that disagreed with the reference
	known int64      // operations that failed on the known coded fallback
	notes []string   // the first failures, for the log
	spans []*opSpans // traced sessions only
}

// add records one operation: err is what the program returned, ok
// whether the answer matched the benchmark's reference.
func (r *recorder) add(kind opKind, dur time.Duration, err error, ok bool) {
	failed := err != nil || !ok
	if err == nil && !ok {
		r.wrong++
	}
	if failed && len(r.notes) < 5 {
		if err != nil {
			r.notes = append(r.notes, fmt.Sprintf("%s: %v", kind, err))
		} else {
			r.notes = append(r.notes, fmt.Sprintf("%s: wrong answer", kind))
		}
	}
	r.ops = append(r.ops, opRecord{kind, dur, failed})
}

// addKnown records an operation that failed a shape check only
// because of the program's known coded-fallback fault (see README,
// "Coded fallbacks"). It counts as failed; its answer was right, so it
// does not make the run incorrect.
func (r *recorder) addKnown(kind opKind, dur time.Duration) {
	r.known++
	r.ops = append(r.ops, opRecord{kind, dur, true})
}

// note keeps the reason a check failed, for the log.
func (r *recorder) note(format string, args ...any) {
	if len(r.notes) < 5 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// tally is the attempted/failed count over every recorder a run used.
type tally struct {
	attempted, failed, wrong, known int64
	notes                           []string
}

func (t *tally) add(recs ...*recorder) {
	for _, r := range recs {
		t.wrong += r.wrong
		t.known += r.known
		t.notes = append(t.notes, r.notes...)
		for _, op := range r.ops {
			t.attempted++
			if op.failed {
				t.failed++
			}
		}
	}
}

// drive runs the closed loop: every client runs whole rounds, each
// operation waiting for its answer, until d has passed; a round under
// way when time is up finishes. It returns one recorder per client and
// the time from the start to the last client's last answer.
func drive(ctx context.Context, s session, clients int, seed int64, stream uint64, d time.Duration) ([]*recorder, time.Duration) {
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		recs[c] = new(recorder)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(seed), stream<<8|uint64(c)))
			for {
				s.round(ctx, c, rng, recs[c])
				if !time.Now().Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// window is one measured closed-loop pass and the counters around it.
type window struct {
	recs    []*recorder
	elapsed time.Duration
	wire    wireSnapshot
	store   impir.StoreStats // delta
	kv      impir.KVStats    // delta (keyword sessions)
	queue   queueDelta
}

type queueDelta struct {
	dispatched, passes uint64
	wait               time.Duration
}

func measure(ctx context.Context, dep *deployment, s session, clients int, seed int64, stream uint64, d time.Duration) window {
	w0, st0 := dep.wire.snapshot(), s.stats()
	dis0, pas0, wait0 := dep.queueStats()
	var kv0 impir.KVStats
	kvs, isKV := s.(kvCounters)
	if isKV {
		kv0 = kvs.kvStats()
	}
	recs, elapsed := drive(ctx, s, clients, seed, stream, d)
	dis1, pas1, wait1 := dep.queueStats()
	win := window{
		recs:    recs,
		elapsed: elapsed,
		wire:    dep.wire.snapshot().sub(w0),
		store:   metrics.DeltaStore(s.stats(), st0),
		queue:   queueDelta{dis1 - dis0, pas1 - pas0, wait1 - wait0},
	}
	if isKV {
		win.kv = deltaKV(kvs.kvStats(), kv0)
	}
	return win
}

func (w window) ops() int64 {
	var n int64
	for _, r := range w.recs {
		n += int64(len(r.ops))
	}
	return n
}

// latencies returns the window's operation latencies in milliseconds,
// sorted; kinds filters them (none = all).
func (w window) latencies(kinds ...opKind) []float64 {
	var out []float64
	for _, r := range w.recs {
		for _, op := range r.ops {
			if len(kinds) == 0 || slices.Contains(kinds, op.kind) {
				out = append(out, ms(op.dur))
			}
		}
	}
	sort.Float64s(out)
	return out
}

// execute runs one workload end to end and returns its result line.
func execute(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	var (
		dep   *deployment
		sess  session
		reps  []setupTimes
		perDB []float64
		all   tally
	)
	defer func() {
		if sess != nil {
			sess.close()
		}
		if dep != nil {
			dep.close()
		}
	}()

	// Set-up, repeated: the last deployment stays up for the run. It is
	// repeated for seconds, not a few times: a shared host's speed can
	// swing by a third from one fraction of a second to the next, and a
	// median over a second of set-ups moves with the share of slow
	// moments in it.
	setupStart := time.Now()
	for len(reps) < minSetupReps || time.Since(setupStart) < cfg.setupFor {
		if dep != nil {
			sess.close()
			dep.close()
			sess, dep = nil, nil
		}
		runtime.GC()
		before := heapInUse()
		ring := 0
		if cfg.traced {
			ring = traceRing
		}
		d, st, err := w.setup(ctx, ring)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		dep = d
		runtime.GC()
		var served int64
		for _, srv := range dep.servers {
			served += srv.Database().SizeBytes()
		}
		perDB = append(perDB, float64(heapInUse()-before)/float64(served))
		start := time.Now()
		sess, err = w.open(ctx, dep, false)
		if err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		st.open = time.Since(start)
		reps = append(reps, st)
	}
	totals := pick(reps, setupTimes.total)
	sort.Float64s(totals)
	fmt.Fprintf(cfg.log, "perfbench: %s\nperfbench: set-up %.4f s (median of %d; quartiles %.4f..%.4f)\n",
		w.describe(), quantile(totals, 0.5), len(reps), quantile(totals, 0.25), quantile(totals, 0.75))
	if dep.flip {
		if err := dep.flipParty1(); err != nil {
			return nil, fmt.Errorf("flip a byte: %w", err)
		}
	}

	// Byte-shape check, then warm-up, neither measured. A shape that
	// depends on the index is a fault of the program: the run is not
	// correct.
	check := new(recorder)
	if err := sess.checkShape(ctx, dep, check); err != nil {
		check.note("%v", err)
		check.add(opRetrieve, 0, nil, false)
	}
	warm, _ := drive(ctx, sess, w.clients(), cfg.seed, 1, min(cfg.seconds/10, time.Second))
	all.add(check)
	all.add(warm...)

	window := cfg.seconds
	if cfg.traced {
		window = cfg.seconds / 2
	}
	plain := measure(ctx, dep, sess, w.clients(), cfg.seed, 2, window)
	all.add(plain.recs...)
	all.add(verify(ctx, sess))

	res := &result{Metrics: map[string]metric{}}
	if !cfg.traced {
		lat := plain.latencies()
		ops := plain.ops()
		res.Metrics = map[string]metric{
			"setup_s":          {median(pick(reps, setupTimes.total)), "s"},
			"throughput_ops_s": {float64(ops) / plain.elapsed.Seconds(), "1/s"},
			"p50_ms":           {quantile(lat, 0.5), "ms"},
			"p90_ms":           {quantile(lat, 0.9), "ms"},
			"mem_mb":           {peakRSSMB(), "MB"},
			"wire_kb_per_op":   {float64(plain.wire.in+plain.wire.out) / 1000 / float64(ops), "KB"},
		}
		fmt.Fprintf(cfg.log, "perfbench: %d ops in %v, %d latency samples\n", ops, plain.elapsed, len(lat))
	} else {
		sess.close()
		sess = nil
		tsess, err := w.open(ctx, dep, true)
		if err != nil {
			return nil, fmt.Errorf("open traced: %w", err)
		}
		sess = tsess
		twarm, _ := drive(ctx, sess, w.clients(), cfg.seed, 3, min(cfg.seconds/10, time.Second))
		all.add(twarm...)
		traced := measure(ctx, dep, sess, w.clients(), cfg.seed, 4, window)
		all.add(traced.recs...)
		all.add(verify(ctx, sess))
		m, err := layerMetrics(w, dep, sess, reps, perDB, plain, traced, cfg)
		if err != nil {
			return nil, err
		}
		res.Metrics = m
	}
	res.Attempted, res.Failed = all.attempted, all.failed
	res.Correct = all.wrong == 0
	if all.known > 0 {
		fmt.Fprintf(cfg.log, "perfbench: %d of %d ops failed on the known coded fallback (see README)\n", all.known, all.attempted)
	}
	for _, f := range all.notes[:min(len(all.notes), 5)] {
		fmt.Fprintln(cfg.log, "perfbench: failed:", f)
	}
	return res, nil
}

// verify runs a session's after-window checks, outside every measured
// window.
func verify(ctx context.Context, s session) *recorder {
	rec := new(recorder)
	if v, ok := s.(verifier); ok {
		v.verify(ctx, rec)
	}
	return rec
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func heapInUse() int64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapInuse)
}

// peakRSSMB is the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb * 1024 / 1e6
		}
	}
	return math.NaN()
}

func deltaKV(cur, prev impir.KVStats) impir.KVStats {
	return impir.KVStats{
		Gets:          cur.Gets - prev.Gets,
		Puts:          cur.Puts - prev.Puts,
		Hits:          cur.Hits - prev.Hits,
		Misses:        cur.Misses - prev.Misses,
		ProbedBuckets: cur.ProbedBuckets - prev.ProbedBuckets,
	}
}
