package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	impir "github.com/impir/impir"
	"github.com/impir/impir/internal/batchcode"
	"github.com/impir/impir/internal/obs"
)

// Batch-code geometry of kv-coded-rw: C buckets, r choices per record,
// and the overflow tail, so every coded read is C+overflow sub-queries.
const (
	codeBuckets  = 8
	codeChoices  = 2
	codeOverflow = 2
	valueSize    = 32
	// layoutSeed seeds the cuckoo table's and the batch code's hashes.
	// It is fixed, not drawn from --seed: whether any key's coded read
	// falls back depends on it (at some seeds none does), and the
	// fallback probe must fail in every run alike.
	layoutSeed = 4
)

// kvWorkload is a keyword table on a flat two-party CPU deployment that
// declares a batch code. One client issues Gets (hits and misses 3:1)
// and Puts; the benchmark keeps its own key → value model.
type kvWorkload struct {
	o     options
	pairs []impir.KVPair
	// Set by setup: the model is reset with every fresh deployment.
	model  map[string][]byte
	keys   []string // every stored key, for uniform hit picks
	served *impir.DB
	code   impir.CodeManifest
	kvm    impir.KVManifest
	// dropped records that the dropPut hook has swallowed its Put.
	dropped bool
	// plannable reports whether a key's probe rows plan as one coded
	// batch; leftOut counts the stored keys that do not.
	plannable func(key string) bool
	leftOut   int
	// fallbackKey is a never-stored key whose probe rows do not plan
	// (empty when uncoded): every Get of it falls back.
	fallbackKey string
}

func newKVCoded(o options) (workload, error) {
	n := 1 << 14
	if o.records > 0 {
		n = o.records
	}
	vals := genRecords(o.seed, 1, n, valueSize)
	w := &kvWorkload{o: o, pairs: make([]impir.KVPair, n)}
	for i := range w.pairs {
		w.pairs[i] = impir.KVPair{
			Key:   []byte(fmt.Sprintf("key-%08d", i)),
			Value: vals[i*valueSize : (i+1)*valueSize],
		}
	}
	return w, nil
}

// One client: concurrent writes corrupt concurrent reads (see README,
// "Version skew").
func (w *kvWorkload) clients() int { return 1 }

func (w *kvWorkload) setup(ctx context.Context, ring int) (*deployment, setupTimes, error) {
	dep := newDeployment(ring)
	dep.flip = w.o.flipByte
	start := time.Now()
	db, kvm, err := impir.BuildKVDB(w.pairs, impir.KVTableOptions{Seed: layoutSeed})
	if err != nil {
		return nil, setupTimes{}, fmt.Errorf("build keyword table: %w", err)
	}
	served := db
	var code impir.CodeManifest
	if !w.o.uncoded {
		code, err = impir.DeriveBatchCode(uint64(db.NumRecords()), db.RecordSize(),
			codeBuckets, codeChoices, codeOverflow, kvm.ProbesPerKey(), layoutSeed)
		if err != nil {
			return nil, setupTimes{}, err
		}
		if served, err = impir.EncodeBatchCode(db, code); err != nil {
			return nil, setupTimes{}, err
		}
	}
	build := time.Since(start)

	cfg := impir.ServerConfig{Engine: impir.EngineCPU, AllowWireUpdates: true}
	addrs, load, err := serveParties(dep, cfg, served)
	if err != nil {
		dep.close()
		return nil, setupTimes{}, err
	}
	dep.d = impir.FlatDeployment(addrs...).WithKeyword(kvm)
	if !w.o.uncoded {
		dep.d = dep.d.WithBatchCode(code)
	}
	w.served, w.code, w.kvm = served, code, kvm
	if w.keys == nil {
		if err := w.pickKeys(); err != nil {
			dep.close()
			return nil, setupTimes{}, err
		}
	}
	w.model = make(map[string][]byte, len(w.pairs))
	for _, p := range w.pairs {
		w.model[string(p.Key)] = p.Value
	}
	w.dropped = false
	return dep, setupTimes{build: build, load: load}, nil
}

// pickKeys lists the stored keys the operations draw from. A key whose
// probe rows the batch planner cannot place falls back to uncoded
// queries, a different wire shape. A random draw would meet such keys a
// different number of times in every run, so they are left out of the
// draws and counted; instead one fixed never-stored key that falls back
// is read once per round (see README, "Coded fallbacks").
func (w *kvWorkload) pickKeys() error {
	w.keys = make([]string, 0, len(w.pairs))
	w.plannable = func(string) bool { return true }
	if !w.o.uncoded {
		layout, err := batchcode.NewLayout(w.code)
		if err != nil {
			return err
		}
		w.plannable = func(key string) bool {
			_, ok, err := layout.PlanBatch(w.kvm.ProbeIndices([]byte(key)), nil)
			return err == nil && ok
		}
	}
	for _, p := range w.pairs {
		if w.plannable(string(p.Key)) {
			w.keys = append(w.keys, string(p.Key))
		}
	}
	w.leftOut = len(w.pairs) - len(w.keys)
	if w.o.uncoded {
		return nil
	}
	rng := rand.New(rand.NewPCG(layoutSeed, 5))
	for i := 0; i < 1<<20; i++ {
		if key := missKeyFrom(rng); !w.plannable(key) {
			w.fallbackKey = key
			return nil
		}
	}
	return fmt.Errorf("no never-stored key falls back in %d draws", 1<<20)
}

func (w *kvWorkload) describe() string {
	code, misses := "no batch code", "2 misses"
	if !w.o.uncoded {
		code = fmt.Sprintf("batch code %d buckets x %d rows, %d choices, %d overflow slots (%d sub-queries per read); "+
			"%d stored keys left out of the draws (coded read falls back)",
			w.code.Buckets, w.code.BucketRows, w.code.Choices, w.code.OverflowSlots, w.code.QueriesPerBatch(), w.leftOut)
		misses = fmt.Sprintf("2 misses, one of them at the fallback key %q", w.fallbackKey)
	}
	return fmt.Sprintf("flat: 2 parties x 1 server, CPU engine; %d pairs in %d buckets + %d stash of %d B (%d probes per key); %s; "+
		"%d served rows; 1 client, rounds of 2 Puts + 8 Gets (6 hits, %s)",
		len(w.pairs), w.kvm.NumBuckets, w.kvm.StashBuckets, w.served.RecordSize(), w.kvm.ProbesPerKey(), code,
		w.served.NumRecords(), misses)
}

func (w *kvWorkload) open(ctx context.Context, dep *deployment, traced bool) (session, error) {
	s := &kvSession{w: w, dep: dep, traced: traced}
	var opts []impir.ClientOption
	if traced {
		s.tr = impir.NewTracer(impir.TracerConfig{SampleRate: 1, RingSize: traceRing})
		// Registered first, so it is outermost: its interval holds the
		// tracer's root span of the same read.
		opts = append(opts, impir.WithBatchInterceptor(s.timeRead), s.tr.Option())
	}
	kv, err := impir.OpenKV(ctx, dep.d, opts...)
	if err != nil {
		return nil, err
	}
	s.kv = kv
	return s, nil
}

type kvSession struct {
	w      *kvWorkload
	dep    *deployment
	traced bool
	kv     *impir.KVClient
	tr     *impir.Tracer
	// getBytes is the wire bytes of this session's first Get; every
	// other Get must move exactly as many.
	getBytes int64
	// written lists the key of every Put, in order, for verify.
	written []string
	// lastRead is the interval of the most recent store read.
	readStart, readEnd time.Time
}

func (s *kvSession) timeRead(ctx context.Context, indices []uint64, invoke impir.BatchInvoker) ([][]byte, error) {
	s.readStart = time.Now()
	recs, err := invoke(ctx, indices)
	s.readEnd = time.Now()
	return recs, err
}

// round is ten operations: two Puts and six hits at uniform random
// stored keys, one miss at a random never-stored key and one at the
// fallback key. So one op in five is a Put, and Gets hit and miss 3:1.
// The Put share is an assumption of this benchmark (see README).
func (s *kvSession) round(ctx context.Context, _ int, rng *rand.Rand, rec *recorder) {
	for i := 0; i < 2; i++ {
		s.put(ctx, s.w.keys[rng.IntN(len(s.w.keys))], rng, rec)
		for j := 0; j < 3; j++ {
			s.get(ctx, s.w.keys[rng.IntN(len(s.w.keys))], true, rec)
		}
		if i == 1 && s.w.fallbackKey != "" {
			s.get(ctx, s.w.fallbackKey, false, rec)
		} else {
			s.get(ctx, s.missKey(rng), false, rec)
		}
	}
}

// verify reads back the key of every Put this session made, in order,
// and checks it against the model. It runs after the measured window,
// so the read-backs are not in the workload's mix.
func (s *kvSession) verify(ctx context.Context, rec *recorder) {
	for _, key := range s.written {
		s.get(ctx, key, true, rec)
	}
	s.written = nil
}

// missKey draws a key that was never stored and whose probe rows plan
// as one coded batch.
func (s *kvSession) missKey(rng *rand.Rand) string {
	for {
		if key := missKeyFrom(rng); s.w.plannable(key) {
			return key
		}
	}
}

// missKeyFrom draws a key that was never stored: stored keys start
// "key-".
func missKeyFrom(rng *rand.Rand) string {
	return fmt.Sprintf("miss%08d", rng.IntN(100000000))
}

// get reads key and checks the answer against the model (hit) or for
// ErrNotFound (miss), plus the two shape properties: every Get moves
// the same wire bytes, and a coded Get issues exactly the manifest's
// C+overflow sub-queries with no fallback. A Get of the fallback key
// that breaks only the shape is the known fault, counted apart.
func (s *kvSession) get(ctx context.Context, key string, hit bool, rec *recorder) {
	w0, st0 := s.dep.wire.snapshot(), s.kv.Store().Stats()
	sp := s.begin(&ctx, opGet, rec)
	start := time.Now()
	val, err := s.kv.Get(ctx, []byte(key))
	dur := time.Since(start)
	sp.end(start, dur)
	var ok bool
	if hit {
		ok = err == nil && bytes.Equal(val, s.w.model[key])
	} else {
		ok = errors.Is(err, impir.ErrNotFound)
		if ok {
			err = nil
		} else if err == nil {
			rec.note("get %q: a key never stored was found", key)
		}
	}
	fallback := key == s.w.fallbackKey
	var shape []string
	if d := s.dep.wire.snapshot().sub(w0); s.getBytes == 0 && !fallback {
		s.getBytes = d.in + d.out
	} else if d.in+d.out != s.getBytes {
		shape = append(shape, fmt.Sprintf("moved %d wire bytes, the first get %d", d.in+d.out, s.getBytes))
	}
	if msg := s.codedShape(st0); msg != "" {
		shape = append(shape, msg)
	}
	if fallback && ok && len(shape) > 0 {
		rec.addKnown(opGet, dur)
		return
	}
	for _, msg := range shape {
		rec.note("get %q (hit=%v): %s", key, hit, msg)
	}
	rec.add(opGet, dur, err, ok && len(shape) == 0)
}

// put overwrites key with a fresh value; the model applies it once the
// store acknowledges it.
func (s *kvSession) put(ctx context.Context, key string, rng *rand.Rand, rec *recorder) {
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte(rng.Uint32())
	}
	st0 := s.kv.Store().Stats()
	sp := s.begin(&ctx, opPut, rec)
	start := time.Now()
	err := s.kv.Put(ctx, []byte(key), val)
	dur := time.Since(start)
	sp.end(start, dur)
	if sp != nil {
		sp.readStart, sp.readEnd = s.readStart, s.readEnd
	}
	if err == nil {
		if s.w.o.dropPut && !s.w.dropped {
			s.w.dropped = true
		} else {
			s.w.model[key] = val
		}
		s.written = append(s.written, key)
	}
	msg := s.codedShape(st0)
	if msg != "" {
		rec.note("put %q: %s", key, msg)
	}
	rec.add(opPut, dur, err, msg == "")
}

func (s *kvSession) begin(ctx *context.Context, kind opKind, rec *recorder) *opSpans {
	if !s.traced {
		return nil
	}
	sp := rec.begin(kind)
	*ctx = obs.ContextWithOpAttrs(*ctx, obs.Attr{Key: benchOpAttr, Value: sp.id})
	return sp
}

// codedShape checks the coded read an operation made since st0; it
// returns what was wrong, or "".
func (s *kvSession) codedShape(st0 impir.StoreStats) string {
	if s.w.o.uncoded {
		return ""
	}
	st := s.kv.Store().Stats()
	q, f := st.CodedQueries-st0.CodedQueries, st.CodeFallbacks-st0.CodeFallbacks
	if q != uint64(s.w.code.QueriesPerBatch()) || f != 0 {
		return fmt.Sprintf("coded read issued %d sub-queries and %d fallbacks, want %d and none", q, f, s.w.code.QueriesPerBatch())
	}
	return ""
}

// checkShape has nothing to add: every keyword operation checks its
// own shape in round.
func (s *kvSession) checkShape(context.Context, *deployment, *recorder) error { return nil }

func (s *kvSession) stats() impir.StoreStats {
	var sum impir.StoreStats
	addStats(&sum, s.kv.Store().Stats())
	return sum
}

func (s *kvSession) kvStats() impir.KVStats { return s.kv.Stats() }

func (s *kvSession) tracers() []*impir.Tracer {
	if s.tr == nil {
		return nil
	}
	return []*impir.Tracer{s.tr}
}

func (s *kvSession) close() { s.kv.Close() }

func (w *kvWorkload) layers() (map[string]metric, error) {
	domain := log2Ceil(w.served.NumRecords())
	m, err := standardLayers(domain, w.served.Data(), w.served.RecordSize())
	if err != nil {
		return nil, err
	}
	m["batchcode.plan_us"] = metric{0, "us"}
	m["batchcode.fallback_key_share"] = metric{float64(w.leftOut) / float64(len(w.pairs)), "ratio"}
	if w.o.uncoded {
		return m, nil
	}
	layout, err := batchcode.NewLayout(w.code)
	if err != nil {
		return nil, err
	}
	plans := make([]float64, 0, 200)
	for i := 0; i < cap(plans); i++ {
		probe := w.kvm.ProbeIndices(w.pairs[i%len(w.pairs)].Key)
		start := time.Now()
		if _, _, err := layout.PlanBatch(probe, nil); err != nil {
			return nil, err
		}
		plans = append(plans, float64(time.Since(start))/float64(time.Microsecond))
	}
	m["batchcode.plan_us"] = metric{median(plans), "us"}
	return m, nil
}
