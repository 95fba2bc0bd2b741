package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	impir "github.com/impir/impir"
	"github.com/impir/impir/internal/metrics"
)

const (
	// benchOpAttr links a client tracer's root span to the benchmark's
	// span of the same operation.
	benchOpAttr = "bench_op"
	// traceRing holds every span tree of a traced pass, per client
	// tracer and per server.
	traceRing = 1 << 15
)

var opSeq atomic.Int64

// opSpans is the benchmark's own span around one operation; for a Put,
// also the interval of its keyword read through the store.
type opSpans struct {
	id                 string
	kind               opKind
	start              time.Time
	dur                time.Duration
	readStart, readEnd time.Time
}

func (r *recorder) begin(kind opKind) *opSpans {
	sp := &opSpans{id: strconv.FormatInt(opSeq.Add(1), 10), kind: kind}
	r.spans = append(r.spans, sp)
	return sp
}

func (sp *opSpans) end(start time.Time, dur time.Duration) {
	if sp != nil {
		sp.start, sp.dur = start, dur
	}
}

// pathSample is one traced operation's self time per layer along its
// blocking path: the party attempt that answered last.
type pathSample struct {
	kind   opKind
	op     float64 // whole operation, ms
	bench  float64 // the benchmark's own code around the call
	client float64 // client root span minus the parties it waited on
	fanout float64 // time the client waited on its parties
	rtt    float64 // attempt minus the server's dispatch, ms
	server float64 // server dispatch minus queue and engine
	queue  float64
	engine float64
	pim    bool
	phases [metrics.NumPhases]float64
	read   float64 // Put: the keyword read
	update float64 // Put: everything after the read
}

// dumpOp is one operation's joined span trees as written to the dump.
type dumpOp struct {
	ID      string                `json:"id"`
	Kind    string                `json:"kind"`
	Start   time.Time             `json:"start"`
	DurUS   int64                 `json:"dur_us"`
	ReadUS  int64                 `json:"read_us,omitempty"`
	Client  impir.TraceSnapshot   `json:"client"`
	Servers []impir.TraceSnapshot `json:"servers"`
}

// serverSpan is one server trace with the engine that produced it.
type serverSpan struct {
	snap impir.TraceSnapshot
	pim  bool
}

// joinTraces pairs every traced operation with its client span tree and
// the server span trees of its attempts, and reduces each to its
// blocking-path self times.
func joinTraces(dep *deployment, s session, traced window) ([]pathSample, []dumpOp, int, error) {
	// A server rings its span after writing the answer; let the last
	// ones land.
	time.Sleep(50 * time.Millisecond)
	servers := map[string]serverSpan{}
	for _, srv := range dep.servers {
		pim := srv.EngineName() == "IM-PIR"
		for _, sn := range srv.RecentTraces(0) {
			servers[sn.SpanID] = serverSpan{sn, pim}
		}
	}
	roots := map[string]impir.TraceSnapshot{}
	for _, tr := range s.tracers() {
		for _, sn := range tr.RecentTraces(0) {
			if id, ok := sn.Attr(benchOpAttr); ok {
				roots[id] = sn
			}
		}
	}

	var samples []pathSample
	var dump []dumpOp
	unjoined := 0
	for _, r := range traced.recs {
		for _, sp := range r.spans {
			root, ok := roots[sp.id]
			if !ok {
				unjoined++
				continue
			}
			ps := pathSample{kind: sp.kind, op: ms(sp.dur)}
			d := dumpOp{ID: sp.id, Kind: sp.kind.String(), Start: sp.start, DurUS: sp.dur.Microseconds(), Client: root}
			rootMS := usMS(root.DurUS)
			ps.bench = ps.op - rootMS
			if sp.kind == opPut {
				ps.read = ms(sp.readEnd.Sub(sp.readStart))
				ps.update = ms(sp.start.Add(sp.dur).Sub(sp.readEnd))
				ps.bench = ps.op - rootMS - ps.update
				d.ReadUS = sp.readEnd.Sub(sp.readStart).Microseconds()
			}

			parties := collect(root, "party")
			ps.fanout = ms(union(parties))
			ps.client = rootMS - ps.fanout
			last := latest(parties)
			for _, att := range collect(root, "attempt") {
				if srv, ok := servers[att.SpanID]; ok {
					d.Servers = append(d.Servers, srv.snap)
				}
			}
			if last == nil {
				unjoined++
				continue
			}
			att := winner(*last)
			srv, ok := servers[att.SpanID]
			if !ok {
				// A failed attempt leaves no server trace.
				unjoined++
				continue
			}
			ps.rtt = usMS(att.DurUS - srv.snap.DurUS)
			ps.pim = srv.pim
			width := 1.0
			if srv.snap.Name == "server.batch" {
				if v, err := strconv.Atoi(srv.snap.Attrs["width"]); err == nil {
					width = float64(v)
				}
			}
			ps.server = usMS(srv.snap.DurUS)
			for _, ch := range srv.snap.Children {
				switch ch.Name {
				case "queue":
					ps.queue = usMS(ch.DurUS)
				case "engine":
					ps.engine = usMS(ch.DurUS)
					for i := 0; i < metrics.NumPhases; i++ {
						if v, ok := ch.Attrs[metrics.Phase(i).String()]; ok {
							if pd, err := time.ParseDuration(v); err == nil {
								ps.phases[i] = ms(pd) * width
							}
						}
					}
				}
			}
			ps.server -= ps.queue + ps.engine
			samples = append(samples, ps)
			dump = append(dump, d)
		}
	}
	if len(samples) == 0 {
		return nil, nil, 0, fmt.Errorf("no traced operation could be joined to its client and server spans (%d tried)", unjoined)
	}
	return samples, dump, unjoined, nil
}

// collect returns every span named name below root.
func collect(root impir.TraceSnapshot, name string) []impir.TraceSnapshot {
	var out []impir.TraceSnapshot
	for _, ch := range root.Children {
		if ch.Name == name {
			out = append(out, ch)
		}
		out = append(out, collect(ch, name)...)
	}
	return out
}

func spanEnd(s impir.TraceSnapshot) time.Time {
	return s.Start.Add(time.Duration(s.DurUS) * time.Microsecond)
}

// union is the time the spans cover together.
func union(spans []impir.TraceSnapshot) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var total time.Duration
	var curStart, curEnd time.Time
	for i, s := range spans {
		e := spanEnd(s)
		if i == 0 || s.Start.After(curEnd) {
			total += curEnd.Sub(curStart)
			curStart, curEnd = s.Start, e
		} else if e.After(curEnd) {
			curEnd = e
		}
	}
	return total + curEnd.Sub(curStart)
}

// latest is the span that ends last: the party the operation waited for.
func latest(spans []impir.TraceSnapshot) *impir.TraceSnapshot {
	var out *impir.TraceSnapshot
	for i := range spans {
		if out == nil || spanEnd(spans[i]).After(spanEnd(*out)) {
			out = &spans[i]
		}
	}
	return out
}

// winner is the party's attempt that answered, or its last attempt.
func winner(party impir.TraceSnapshot) impir.TraceSnapshot {
	atts := collect(party, "attempt")
	for _, a := range atts {
		if o, _ := a.Attr("outcome"); o == "ok" {
			return a
		}
	}
	return *latest(atts)
}

func usMS(us int64) float64 { return float64(us) / 1000 }

// layerMetrics builds the --trace 1 result: counters from the untraced
// window, self times from the traced one, and the standalone probes.
func layerMetrics(w workload, dep *deployment, s session, reps []setupTimes, perDB []float64, plain, traced window, cfg runConfig) (map[string]metric, error) {
	samples, dump, unjoined, err := joinTraces(dep, s, traced)
	if err != nil {
		return nil, err
	}
	if unjoined > 0 {
		fmt.Fprintf(cfg.log, "perfbench: %d traced operations left out: no complete client and server spans\n", unjoined)
	}
	probes, err := w.layers()
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}

	ops := float64(plain.ops())
	perOp := func(v uint64) float64 { return float64(v) / ops }
	perKop := func(v uint64) float64 { return 1000 * float64(v) / ops }
	queriesPerOp := perOp(plain.store.TotalSubQueries())
	m := map[string]metric{
		"client.queries_per_op":        {queriesPerOp, "1/op"},
		"client.retries_per_kop":       {perKop(plain.store.Retries), "1/kop"},
		"client.hedges_per_kop":        {perKop(plain.store.Hedges), "1/kop"},
		"client.keygen_us":             {probes["client.keygen_us"].Value * queriesPerOp, "us"},
		"transport.query_bytes":        {float64(plain.wire.in) / ops, "B"},
		"transport.answer_bytes":       {float64(plain.wire.out) / ops, "B"},
		"transport.redials_per_kop":    {perKop(uint64(plain.wire.accepts)), "1/kop"},
		"scheduler.queue_wait_ms":      {0, "ms"},
		"scheduler.pass_width":         {0, "1/pass"},
		"batchcode.subqueries_per_op":  {perOp(plain.store.CodedQueries), "1/op"},
		"batchcode.dummies_per_op":     {perOp(plain.store.CodedDummies), "1/op"},
		"batchcode.fallbacks_per_kop":  {perKop(plain.store.CodeFallbacks), "1/kop"},
		"batchcode.plan_us":            {probes["batchcode.plan_us"].Value, "us"},
		"batchcode.fallback_key_share": {probes["batchcode.fallback_key_share"].Value, "ratio"},
		"keyword.probes_per_get":       {0, "1/op"},
		"keyword.put_p50_ms":           {0, "ms"},
		"dpf.ns_per_leaf":              probes["dpf.ns_per_leaf"],
		"xorop.gb_s":                   probes["xorop.gb_s"],
		"setup.build_s":                {median(pick(reps, func(t setupTimes) time.Duration { return t.build })), "s"},
		"setup.load_s":                 {median(pick(reps, func(t setupTimes) time.Duration { return t.load })), "s"},
		"setup.open_s":                 {median(pick(reps, func(t setupTimes) time.Duration { return t.open })), "s"},
		"mem.server_bytes_per_db_byte": {median(perDB), "B/B"},
	}
	if plain.queue.dispatched > 0 {
		m["scheduler.queue_wait_ms"] = metric{ms(plain.queue.wait) / float64(plain.queue.dispatched), "ms"}
		m["scheduler.pass_width"] = metric{float64(plain.queue.dispatched) / float64(plain.queue.passes), "1/pass"}
	}
	if reads := plain.kv.Gets + plain.kv.Puts; reads > 0 {
		m["keyword.probes_per_get"] = metric{float64(plain.kv.ProbedBuckets) / float64(reads), "1/op"}
		m["keyword.put_p50_ms"] = metric{quantile(plain.latencies(opPut), 0.5), "ms"}
	}

	// Self times along the blocking path, as medians over operations.
	med := func(f func(pathSample) float64, keep func(pathSample) bool) float64 {
		var v []float64
		for _, ps := range samples {
			if keep == nil || keep(ps) {
				v = append(v, f(ps))
			}
		}
		if len(v) == 0 {
			return 0
		}
		return median(v)
	}
	isPIM := func(ps pathSample) bool { return ps.pim }
	isCPU := func(ps pathSample) bool { return !ps.pim }
	isPut := func(ps pathSample) bool { return ps.kind == opPut }
	phase := func(p metrics.Phase, keep func(pathSample) bool) float64 {
		return med(func(ps pathSample) float64 { return ps.phases[p] }, keep)
	}
	m["bench.self_ms"] = metric{med(func(ps pathSample) float64 { return ps.bench }, nil), "ms"}
	m["client.self_ms"] = metric{med(func(ps pathSample) float64 { return ps.client }, nil), "ms"}
	m["client.fanout_wait_ms"] = metric{med(func(ps pathSample) float64 { return ps.fanout }, nil), "ms"}
	m["transport.rtt_us"] = metric{1000 * med(func(ps pathSample) float64 { return ps.rtt }, nil), "us"}
	m["transport.server_self_ms"] = metric{med(func(ps pathSample) float64 { return ps.server }, nil), "ms"}
	m["impir.query_ms"] = metric{med(func(ps pathSample) float64 { return ps.engine }, isPIM), "ms"}
	m["cpupir.query_ms"] = metric{med(func(ps pathSample) float64 { return ps.engine }, isCPU), "ms"}
	m["pim.copy_to_pim_ms"] = metric{phase(metrics.PhaseCopyToPIM, isPIM), "ms"}
	m["pim.dpxor_ms"] = metric{phase(metrics.PhaseDpXOR, isPIM), "ms"}
	m["pim.copy_to_host_ms"] = metric{phase(metrics.PhaseCopyToHost, isPIM), "ms"}
	m["pim.aggregate_ms"] = metric{phase(metrics.PhaseAggregate, isPIM), "ms"}
	m["dpf.eval_ms"] = metric{phase(metrics.PhaseEval, nil), "ms"}
	m["xorop.scan_ms"] = metric{phase(metrics.PhaseDpXOR, isCPU), "ms"}
	m["keyword.put_read_ms"] = metric{med(func(ps pathSample) float64 { return ps.read }, isPut), "ms"}
	m["keyword.put_update_ms"] = metric{med(func(ps pathSample) float64 { return ps.update }, isPut), "ms"}

	var opLat []float64
	for _, ps := range samples {
		opLat = append(opLat, ps.op)
	}
	sort.Float64s(opLat)
	tracedP50 := quantile(opLat, 0.5)
	plainP50 := quantile(plain.latencies(), 0.5)
	m["trace.p50_ms"] = metric{tracedP50, "ms"}
	m["trace.overhead_ms"] = metric{tracedP50 - plainP50, "ms"}
	// The blocking path's layers, each taken as its median self time:
	// how much of the traced p50 they explain together.
	var sum float64
	for _, f := range []func(pathSample) float64{
		func(ps pathSample) float64 { return ps.bench },
		func(ps pathSample) float64 { return ps.client },
		func(ps pathSample) float64 { return ps.rtt },
		func(ps pathSample) float64 { return ps.server },
		func(ps pathSample) float64 { return ps.queue },
		func(ps pathSample) float64 { return ps.engine },
		func(ps pathSample) float64 { return ps.update },
	} {
		sum += med(f, nil)
	}
	m["trace.accounted_share"] = metric{sum / tracedP50, "ratio"}

	if err := writeDump(cfg, dump, m); err != nil {
		fmt.Fprintln(cfg.log, "perfbench: span dump:", err)
	}
	return m, nil
}

func pick(reps []setupTimes, f func(setupTimes) time.Duration) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r).Seconds()
	}
	return out
}

// writeDump writes the traced pass's joined span trees and the layer
// metrics they gave.
func writeDump(cfg runConfig, ops []dumpOp, m map[string]metric) error {
	if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceOut, fmt.Sprintf("%s-seed%d.json", cfg.name, cfg.seed))
	data, err := json.Marshal(struct {
		Workload   string            `json:"workload"`
		Seed       int64             `json:"seed"`
		Provenance string            `json:"provenance"`
		Layers     map[string]metric `json:"layers"`
		Ops        []dumpOp          `json:"ops"`
	}{cfg.name, cfg.seed, provenance(), m, ops})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "perfbench: spans of %d operations in %s\n", len(ops), path)
	return nil
}
