package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	impir "github.com/impir/impir"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
)

const recordSize = 32

// indexWorkload serves a flat array of generated records and issues
// single-record Retrieves at uniform random indices.
type indexWorkload struct {
	what    string // the deployment, for describe
	n       int
	records []byte // the benchmark's reference copy
	o       options
	nclient int
	// topology builds the deployment from the database; it returns the
	// manifest and the summed Server.Load time.
	topology func(dep *deployment, db *impir.DB) (impir.Deployment, time.Duration, error)
	// domain is log2 of the rows one query addresses (probe geometry).
	domain int
}

// newPIMPoint is the paper's system: a flat two-party deployment on the
// PIM engine in its default configuration (2048 simulated DPUs).
func newPIMPoint(o options) (workload, error) {
	w := &indexWorkload{n: 1 << 19, o: o, nclient: 2, domain: 19,
		what: "flat: 2 parties x 1 server, PIM engine, default config (2048 DPUs)"}
	if o.records > 0 {
		w.n = o.records
		w.domain = log2Ceil(o.records)
	}
	w.topology = func(dep *deployment, db *impir.DB) (impir.Deployment, time.Duration, error) {
		addrs, load, err := serveParties(dep, impir.ServerConfig{}, db)
		return impir.FlatDeployment(addrs...), load, err
	}
	w.records = genRecords(o.seed, 0, w.n, recordSize)
	return w, nil
}

// newCPUSharded is the perf gate's overhead-bound profile: 4096 records
// in 2 shards × 2 parties on the CPU engine, with a second replica on
// shard 0's party 0 as a hedging target (5 servers).
func newCPUSharded(o options) (workload, error) {
	w := &indexWorkload{n: 4096, o: o, nclient: 2, domain: 11,
		what: "2 shards x 2 parties, shard 0 party 0 with 2 replicas (5 servers), CPU engine, hedging on"}
	if o.records > 0 {
		w.n = o.records
		w.domain = log2Ceil(o.records / 2)
	}
	w.topology = func(dep *deployment, db *impir.DB) (impir.Deployment, time.Duration, error) {
		parts, err := impir.SplitDB(db, 2)
		if err != nil {
			return impir.Deployment{}, 0, err
		}
		cfg := impir.ServerConfig{Engine: impir.EngineCPU}
		var shards []impir.DeploymentShard
		var load time.Duration
		first := uint64(0)
		for s, part := range parts {
			var parties []impir.Party
			for p := 0; p < 2; p++ {
				replicas := 1
				if s == 0 && p == 0 {
					replicas = 2
				}
				var addrs []string
				for r := 0; r < replicas; r++ {
					addr, l, err := dep.serve(cfg, part, uint8(p))
					if err != nil {
						return impir.Deployment{}, 0, err
					}
					load += l
					addrs = append(addrs, addr)
				}
				parties = append(parties, impir.Party{Replicas: addrs})
			}
			shards = append(shards, impir.DeploymentShard{
				FirstRecord: first, NumRecords: uint64(part.NumRecords()), Parties: parties,
			})
			first += uint64(part.NumRecords())
		}
		return impir.Deployment{RecordSize: recordSize, Shards: shards}, load, nil
	}
	w.records = genRecords(o.seed, 0, w.n, recordSize)
	return w, nil
}

// serveParties loads db into a flat two-party deployment. Every engine
// copies what it loads, so the parties hold independent replicas.
func serveParties(dep *deployment, cfg impir.ServerConfig, db *impir.DB) ([]string, time.Duration, error) {
	addrs := make([]string, 2)
	var load time.Duration
	for p := range addrs {
		addr, l, err := dep.serve(cfg, db, uint8(p))
		if err != nil {
			return nil, 0, err
		}
		addrs[p], load = addr, load+l
	}
	return addrs, load, nil
}

func (w *indexWorkload) describe() string {
	return fmt.Sprintf("%s; %d records x %d B; %d clients, one Retrieve per round", w.what, w.n, recordSize, w.nclient)
}

func (w *indexWorkload) clients() int { return w.nclient }

func (w *indexWorkload) setup(ctx context.Context, ring int) (*deployment, setupTimes, error) {
	dep := newDeployment(ring)
	dep.flip = w.o.flipByte
	start := time.Now()
	db, err := database.FromFlat(w.records, recordSize)
	if err != nil {
		return nil, setupTimes{}, err
	}
	build := time.Since(start)
	d, load, err := w.topology(dep, db)
	if err != nil {
		dep.close()
		return nil, setupTimes{}, err
	}
	dep.d = d
	return dep, setupTimes{build: build, load: load}, nil
}

func (w *indexWorkload) open(ctx context.Context, dep *deployment, traced bool) (session, error) {
	s := &indexSession{w: w, traced: traced}
	for c := 0; c < w.nclient; c++ {
		var opts []impir.ClientOption
		if traced {
			tr := impir.NewTracer(impir.TracerConfig{SampleRate: 1, RingSize: traceRing})
			s.tr = append(s.tr, tr)
			opts = append(opts, tr.Option())
		}
		st, err := impir.Open(ctx, dep.d, opts...)
		if err != nil {
			s.close()
			return nil, err
		}
		s.stores = append(s.stores, st)
	}
	return s, nil
}

type indexSession struct {
	w      *indexWorkload
	traced bool
	stores []impir.Store
	tr     []*impir.Tracer
}

// round is one Retrieve at a uniform random index, checked against the
// reference copy.
func (s *indexSession) round(ctx context.Context, c int, rng *rand.Rand, rec *recorder) {
	idx := rng.Uint64N(uint64(s.w.n))
	var sp *opSpans
	if s.traced {
		sp = rec.begin(opRetrieve)
		ctx = obs.ContextWithOpAttrs(ctx, obs.Attr{Key: benchOpAttr, Value: sp.id})
	}
	start := time.Now()
	got, err := s.stores[c].Retrieve(ctx, idx)
	dur := time.Since(start)
	sp.end(start, dur)
	rec.add(opRetrieve, dur, err, err == nil && bytes.Equal(got, s.w.want(idx)))
}

func (w *indexWorkload) want(idx uint64) []byte {
	return w.records[idx*recordSize : (idx+1)*recordSize]
}

// checkShape retrieves a few random records one at a time, hedging off
// so no duplicate attempt adds bytes, and requires every Retrieve to
// move the same number of bytes whatever its index.
func (s *indexSession) checkShape(ctx context.Context, dep *deployment, rec *recorder) error {
	rng := rand.New(rand.NewPCG(uint64(s.w.o.seed), 99))
	var first int64 = -1
	for i := 0; i < 4; i++ {
		idx := rng.Uint64N(uint64(s.w.n))
		w0 := dep.wire.snapshot()
		start := time.Now()
		got, err := s.stores[0].Retrieve(ctx, idx, impir.WithHedging(false))
		rec.add(opRetrieve, time.Since(start), err, err == nil && bytes.Equal(got, s.w.want(idx)))
		d := dep.wire.snapshot().sub(w0)
		if first < 0 {
			first = d.in + d.out
		} else if d.in+d.out != first {
			return fmt.Errorf("retrieve of record %d moved %d wire bytes, an earlier one %d", idx, d.in+d.out, first)
		}
	}
	return nil
}

func (s *indexSession) stats() impir.StoreStats {
	var sum impir.StoreStats
	for _, st := range s.stores {
		addStats(&sum, st.Stats())
	}
	return sum
}

func (s *indexSession) tracers() []*impir.Tracer { return s.tr }

func (s *indexSession) close() {
	for _, st := range s.stores {
		st.Close()
	}
	s.stores = nil
}

func (w *indexWorkload) layers() (map[string]metric, error) {
	// One server scans one shard: 2^domain rows.
	return standardLayers(w.domain, w.records[:min(len(w.records), recordSize<<w.domain)], recordSize)
}

// addStats accumulates the counters the benchmark reads.
func addStats(sum *impir.StoreStats, st impir.StoreStats) {
	sum.Retrievals += st.Retrievals
	sum.BatchRetrievals += st.BatchRetrievals
	sum.Updates += st.Updates
	sum.Errors += st.Errors
	sum.Retries += st.Retries
	sum.Hedges += st.Hedges
	sum.HedgeWins += st.HedgeWins
	sum.CodedBatches += st.CodedBatches
	sum.CodedQueries += st.CodedQueries
	sum.CodedDummies += st.CodedDummies
	sum.CodeFallbacks += st.CodeFallbacks
	if len(sum.Shards) == 0 {
		sum.Shards = make([]metrics.ShardStats, 1)
	}
	sum.Shards[0].Queries += st.TotalSubQueries()
}

func log2Ceil(n int) int {
	d := 0
	for 1<<d < n {
		d++
	}
	return d
}
