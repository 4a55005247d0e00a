package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"hyrise/internal/observe"
	"hyrise/internal/pipeline"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail percentile resting on fewer samples is noise.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of ascending samples and
// whether at least minBeyond samples lie above it.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= minBeyond
}

// reported is quantile with unsupported percentiles reported as 0.
func reported(sorted []float64, q float64) float64 {
	v, ok := quantile(sorted, q)
	if !ok {
		return 0
	}
	return v
}

// median is the middle of a small sample, such as the passes of one run.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// describe renders every supported percentile of ascending samples with the
// sample count, e.g. "n=1200 p50=0.081ms p90=0.12ms p99=0.31ms".
func describe(sorted []float64, unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", len(sorted))
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		if v, ok := quantile(sorted, p); ok {
			fmt.Fprintf(&b, " p%g=%.4g%s", p*100, v, unit)
		}
	}
	return b.String()
}

// opKinds are the operator kinds the per-layer metrics break time and rows
// down by; every other operator counts as Other.
var opKinds = []string{"HashJoin", "Aggregate", "TableScan", "Sort", "Projection", "Validate", "GetTable", "Other"}

// opKind maps an operator's diagnostic name ("HashJoin(Inner, a = b)") to
// its kind.
func opKind(name string) string {
	if i := strings.IndexByte(name, '('); i >= 0 {
		name = name[:i]
	}
	for _, k := range opKinds[:len(opKinds)-1] {
		if name == k {
			return k
		}
	}
	return "Other"
}

// traceTotals sums the traces the engine delivers to its trace sink.
type traceTotals struct {
	mu         sync.Mutex
	statements int64
	stages     map[string]time.Duration
	self       map[string]time.Duration
	rowsOut    map[string]int64
}

func newTraceTotals() *traceTotals {
	return &traceTotals{
		stages:  map[string]time.Duration{},
		self:    map[string]time.Duration{},
		rowsOut: map[string]int64{},
	}
}

// add is the trace sink. An OpSpan's duration is the operator's Run with
// its inputs already computed, so summing spans by kind gives self time.
func (t *traceTotals) add(tr *observe.Trace) {
	stages := tr.Stages()
	ops := tr.OpSpans()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.statements++
	for _, s := range stages {
		t.stages[s.Name] += s.Duration
	}
	for _, op := range ops {
		k := opKind(op.Name)
		t.self[k] += op.Duration
		t.rowsOut[k] += op.RowsOut
	}
}

// counterNames are the registry values the per-layer metrics difference
// across the traced phase. Waits come from the wait.*_ns histograms, which
// record the same measurements as the traces' wait spans and also cover
// statements that are not traced, such as COMMIT waiting for the WAL.
var counterNames = []string{
	"plan_cache_hits", "plan_cache_misses", "prepared_plan_hits", "prepared_plan_misses",
	"scan.encoded_dictionary", "scan.encoded_for", "scan.encoded_rle",
	"scan.segments_unencoded", "scan.segments_decoded", "scan.segments_pruned",
	"scheduler_tasks_run", "operator.scan.morsels", "operator.sort.runs", "operator.join.partitions",
	"wal.bytes", "wal.syncs",
	"wait.scheduler_queue_ns_sum", "wait.mvcc_conflict_ns_sum", "wait.wal_sync_ns_sum",
	"wait.executor_queue_ns_sum", "wait.executor_queue_ns_count",
}

type counters map[string]int64

func readCounters(r *observe.Registry) counters {
	c := counters{}
	for _, n := range counterNames {
		c[n], _ = r.Get(n)
	}
	return c
}

// addDelta accumulates after − before.
func (c counters) addDelta(before, after counters) {
	for _, n := range counterNames {
		c[n] += after[n] - before[n]
	}
}

// statsWatch snapshots the statistics objects the engine has cached for a
// set of tables. Statistics().Peek returns the cached pointer without
// building, so a pointer that differs between two snapshots is a rebuild.
type statsWatch struct {
	stats  *statistics.Cache
	tables []*storage.Table
}

func newStatsWatch(e *pipeline.Engine) (statsWatch, error) {
	w := statsWatch{stats: e.Statistics()}
	for _, name := range e.StorageManager().TableNames() {
		t, err := e.StorageManager().GetTable(name)
		if err != nil {
			return w, err
		}
		w.tables = append(w.tables, t)
	}
	return w, nil
}

func (w statsWatch) snapshot() []*statistics.TableStatistics {
	out := make([]*statistics.TableStatistics, len(w.tables))
	for i, t := range w.tables {
		out[i] = w.stats.Peek(t)
	}
	return out
}

func rebuilt(before, after []*statistics.TableStatistics) int64 {
	var n int64
	for i := range before {
		if before[i] != after[i] {
			n++
		}
	}
	return n
}

// layerRun accumulates the traced phase of a run, plus the few per-layer
// numbers that need the whole run.
type layerRun struct {
	traces   *traceTotals
	counters counters
	passes   int           // traced passes
	units    int64         // queries, transactions or wire operations timed
	around   time.Duration // wall time the benchmark measured around them
	rebuilds int64         // statistics rebuilds seen across those units
	commits  int64         // committed transactions (TPC-C)
	attempts int64         // transaction attempts over the whole run (TPC-C)
	aborts   int64         // attempts that ended in a serialization conflict
}

func newLayerRun() *layerRun {
	return &layerRun{traces: newTraceTotals(), counters: counters{}}
}

// begin starts a pass of phase p on e. A traced pass installs the trace
// sink and gets a statistics watch; its end removes the sink and adds the
// registry counters' change. Other passes get a nil watch.
func (l *layerRun) begin(p phase, e *pipeline.Engine) (watch *statsWatch, end func(), err error) {
	if p != traced {
		return nil, func() {}, nil
	}
	sw, err := newStatsWatch(e)
	if err != nil {
		return nil, nil, err
	}
	before := readCounters(e.Metrics())
	e.SetTraceSink(l.traces.add)
	return &sw, func() {
		e.SetTraceSink(nil)
		l.counters.addDelta(before, readCounters(e.Metrics()))
	}, nil
}

// measure runs the untraced phase and, in a trace run, the traced phase,
// each for cfg.seconds.
func measure(cfg runConfig, r *report, l *layerRun, pass func(phase) (time.Duration, error)) error {
	var err error
	r.passes, err = repeat(cfg.seconds, func() (time.Duration, error) { return pass(untraced) })
	if err != nil || !cfg.trace {
		return err
	}
	r.tracedPasses, err = repeat(cfg.seconds, func() (time.Duration, error) { return pass(traced) })
	l.passes = len(r.tracedPasses)
	return err
}

// repeat runs pass until d of wall time has gone by, at least once, and
// returns the durations the passes report. It stops at the first error.
func repeat(d time.Duration, pass func() (time.Duration, error)) ([]time.Duration, error) {
	var out []time.Duration
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		p, err := pass()
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

// metrics derives the per-layer metrics every workload reports. Metrics a
// workload has no use for come out as 0.
func (l *layerRun) metrics(r *report) map[string]float64 {
	t := l.traces
	c := l.counters
	m := map[string]float64{}
	perStmt := func(stage string) float64 {
		return ratio(float64(t.stages[stage].Microseconds()), float64(t.statements))
	}
	perPass := func(v float64) float64 { return ratio(v, float64(l.passes)) }
	perCommit := func(v float64) float64 { return ratio(v, float64(l.commits)) }
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	nsToMS := func(name string) float64 { return float64(c[name]) / 1e6 }

	m["sqlparser.parse_us"] = perStmt("parse")
	m["lqp.translate_us"] = perStmt("translate")
	m["optimizer.optimize_us"] = perStmt("optimize")
	m["operators.to_pqp_us"] = perStmt("to_pqp")
	m["operators.execute_us"] = perStmt("execute")
	m["cache.plan_hit_ratio"] = ratio(float64(c["plan_cache_hits"]), float64(c["plan_cache_hits"]+c["plan_cache_misses"]))
	m["cache.prepared_hit_ratio"] = ratio(float64(c["prepared_plan_hits"]), float64(c["prepared_plan_hits"]+c["prepared_plan_misses"]))
	m["statistics.rebuilds_per_txn"] = ratio(float64(l.rebuilds), float64(l.units))
	for _, k := range opKinds {
		m["operators.self_ms."+k] = perPass(ms(t.self[k]))
		m["operators.rows_out."+k] = perPass(float64(t.rowsOut[k]))
	}
	encoded := c["scan.encoded_dictionary"] + c["scan.encoded_for"] + c["scan.encoded_rle"]
	m["encoding.encoded_scan_ratio"] = ratio(float64(encoded), float64(encoded+c["scan.segments_unencoded"]+c["scan.segments_decoded"]))
	m["encoding.segments_pruned"] = perPass(float64(c["scan.segments_pruned"]))
	m["scheduler.tasks_per_pass"] = perPass(float64(c["scheduler_tasks_run"]))
	m["scheduler.queue_wait_ms"] = perPass(nsToMS("wait.scheduler_queue_ns_sum"))
	m["operators.parallel.scan_morsels"] = perPass(float64(c["operator.scan.morsels"]))
	m["operators.parallel.sort_runs"] = perPass(float64(c["operator.sort.runs"]))
	m["operators.parallel.join_partitions"] = perPass(float64(c["operator.join.partitions"]))
	m["concurrency.abort_ratio"] = ratio(float64(l.aborts), float64(l.attempts))
	m["concurrency.mvcc_wait_ms"] = perPass(nsToMS("wait.mvcc_conflict_ns_sum"))
	m["persistence.wal_bytes_per_commit"] = perCommit(float64(c["wal.bytes"]))
	m["persistence.syncs_per_commit"] = perCommit(float64(c["wal.syncs"]))
	m["persistence.wal_sync_wait_ms"] = perCommit(nsToMS("wait.wal_sync_ns_sum"))
	m["server.pool_wait_us"] = ratio(float64(c["wait.executor_queue_ns_sum"])/1e3, float64(c["wait.executor_queue_ns_count"]))
	m["pipeline.unattributed_ratio"] = 0
	if l.around > 0 {
		var staged time.Duration
		for _, d := range t.stages {
			staged += d
		}
		m["pipeline.unattributed_ratio"] = 1 - float64(staged)/float64(l.around)
	}
	m["trace.overhead_ratio"] = 0
	if untraced := median(millis(r.passes)); untraced > 0 {
		m["trace.overhead_ratio"] = median(millis(r.tracedPasses))/untraced - 1
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerNames lists every per-layer metric, in the order BENCHMARK.json
// lists them.
func layerNames() []string {
	names := []string{
		"sqlparser.parse_us", "lqp.translate_us", "optimizer.optimize_us", "operators.to_pqp_us",
		"operators.execute_us", "cache.plan_hit_ratio", "cache.prepared_hit_ratio",
		"statistics.rebuilds_per_txn",
	}
	for _, k := range opKinds {
		names = append(names, "operators.self_ms."+k)
	}
	for _, k := range opKinds {
		names = append(names, "operators.rows_out."+k)
	}
	for q := 1; q <= 22; q++ {
		names = append(names, fmt.Sprintf("tpch.q%02d_ms", q))
	}
	return append(names,
		"encoding.encoded_scan_ratio", "encoding.segments_pruned",
		"scheduler.tasks_per_pass", "scheduler.queue_wait_ms",
		"operators.parallel.scan_morsels", "operators.parallel.sort_runs", "operators.parallel.join_partitions",
		"concurrency.abort_ratio", "concurrency.mvcc_wait_ms",
		"persistence.wal_bytes_per_commit", "persistence.syncs_per_commit", "persistence.wal_sync_wait_ms",
		"server.pool_wait_us", "server.outside_engine_us",
		"tpcc.neworder_p50_ms", "tpcc.neworder_p95_ms",
		"wire.point_p50_us", "wire.point_p99_us", "wire.scan_p50_us", "wire.scan_p99_us",
		"wire.write_p50_us", "wire.write_p99_us",
		"pipeline.unattributed_ratio", "trace.overhead_ratio",
	)
}

// finishLayers completes a report's per-layer metrics: the generic ones from
// the traced phase, then the workload's own, then 0 for the rest.
func finishLayers(r *report, l *layerRun, own map[string]float64) {
	r.layer = l.metrics(r)
	for k, v := range own {
		r.layer[k] = v
	}
	for _, n := range layerNames() {
		if _, ok := r.layer[n]; !ok {
			r.layer[n] = 0
		}
	}
}

// tableBytes sums Table.MemoryUsage over the catalog.
func tableBytes(sm *storage.StorageManager) int64 {
	var total int64
	for _, name := range sm.TableNames() {
		t, err := sm.GetTable(name)
		if err != nil {
			continue
		}
		data, meta := t.MemoryUsage()
		total += data + meta
	}
	return total
}
