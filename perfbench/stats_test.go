package main

import (
	"strings"
	"testing"
	"time"

	"hyrise/internal/observe"
)

func ascending(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{n: 0, q: 0.5, ok: false},
		{n: 19, q: 0.5, want: 10, ok: false}, // 9 beyond the median
		{n: 20, q: 0.5, want: 10, ok: true},  // 10 beyond
		{n: 199, q: 0.95, want: 190, ok: false},
		{n: 200, q: 0.95, want: 190, ok: true},
		{n: 999, q: 0.99, want: 990, ok: false},
		{n: 1000, q: 0.99, want: 990, ok: true},
		{n: 1, q: 0, want: 1, ok: false},
	}
	for _, c := range cases {
		got, ok := quantile(ascending(c.n), c.q)
		if ok != c.ok || (c.n > 0 && got != c.want) {
			t.Errorf("quantile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if got := reported(ascending(999), 0.99); got != 0 {
		t.Errorf("unsupported p99 reported as %g, want 0", got)
	}
}

func TestDescribeShowsCountAndSupportedPercentilesOnly(t *testing.T) {
	got := describe(ascending(200), "ms")
	for _, want := range []string{"n=200", "p50=100ms", "p90=180ms", "p95=190ms"} {
		if !strings.Contains(got, want) {
			t.Errorf("describe = %q, missing %q", got, want)
		}
	}
	if strings.Contains(got, "p99=") {
		t.Errorf("describe = %q reports p99 from 200 samples", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %g", got)
	}
}

func TestOpKind(t *testing.T) {
	cases := map[string]string{
		"HashJoin(Inner, a = b)":       "HashJoin",
		"Aggregate(a, SUM(b))":         "Aggregate",
		"TableScan(a > 3)":             "TableScan",
		"Sort(a DESC)":                 "Sort",
		"Projection(a, b)":             "Projection",
		"Validate":                     "Validate",
		"GetTable(t, 2 pruned)":        "GetTable",
		"SortMergeJoin(Inner, a = b)":  "Other",
		"Limit(10)":                    "Other",
		"HashJoinish":                  "Other",
		"Insert(orders, 1 rows)":       "Other",
		"NestedLoopJoin(Inner, 1 pre)": "Other",
	}
	for name, want := range cases {
		if got := opKind(name); got != want {
			t.Errorf("opKind(%q) = %q, want %q", name, got, want)
		}
	}
}

// The trace sink sums operator spans by kind, across operators and across
// traces, and stage spans by stage.
func TestTraceTotalsAggregatesOpSpansByKind(t *testing.T) {
	totals := newTraceTotals()
	for i := 0; i < 2; i++ {
		tr := observe.NewTrace("select")
		join, scanA, scanB, limit := new(int), new(int), new(int), new(int)
		tr.RecordOp(scanA, "TableScan(a > 1)", 3*time.Millisecond, 100, 10, 0)
		tr.RecordOp(scanB, "TableScan(b < 2)", 2*time.Millisecond, 100, 20, 0)
		tr.RecordOp(join, "HashJoin(Inner, a = b)", 4*time.Millisecond, 30, 5, 0)
		tr.RecordOp(join, "HashJoin(Inner, a = b)", 1*time.Millisecond, 30, 5, 0) // a second call
		tr.RecordOp(limit, "Limit(1)", time.Millisecond, 10, 1, 0)
		tr.AddStage("parse", 10*time.Microsecond)
		tr.AddStage("execute", 11*time.Millisecond)
		totals.add(tr)
	}
	if totals.statements != 2 {
		t.Errorf("statements = %d, want 2", totals.statements)
	}
	wantSelf := map[string]time.Duration{"TableScan": 10 * time.Millisecond, "HashJoin": 10 * time.Millisecond, "Other": 2 * time.Millisecond}
	wantRows := map[string]int64{"TableScan": 60, "HashJoin": 20, "Other": 2}
	for _, k := range opKinds {
		if totals.self[k] != wantSelf[k] || totals.rowsOut[k] != wantRows[k] {
			t.Errorf("%s: self %v rows %d, want %v and %d", k, totals.self[k], totals.rowsOut[k], wantSelf[k], wantRows[k])
		}
	}
	if totals.stages["parse"] != 20*time.Microsecond || totals.stages["execute"] != 22*time.Millisecond {
		t.Errorf("stages = %v", totals.stages)
	}

	l := &layerRun{traces: totals, counters: counters{}, passes: 2}
	m := l.metrics(&report{})
	if m["operators.self_ms.HashJoin"] != 5 || m["operators.rows_out.TableScan"] != 30 {
		t.Errorf("per-pass HashJoin self %g ms, TableScan rows %g; want 5 and 30",
			m["operators.self_ms.HashJoin"], m["operators.rows_out.TableScan"])
	}
	if m["operators.execute_us"] != 11000 {
		t.Errorf("execute_us = %g, want 11000", m["operators.execute_us"])
	}
}

// BENCHMARK.json lists exactly the per-layer metrics the workloads produce,
// and every workload the benchmark implements.
func TestSpecMatchesBenchmark(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	names := layerNames()
	if len(s.PerLayer) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark produces %d", len(s.PerLayer), len(names))
	}
	for i, d := range s.PerLayer {
		if d.Name != names[i] {
			t.Errorf("per_layer[%d] = %s, want %s", i, d.Name, names[i])
		}
	}
	for name := range workloads {
		if !s.hasWorkload(name) {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(s.Workloads), len(workloads))
	}
	e2e := endToEnd(&report{})
	for _, d := range s.EndToEnd {
		if _, ok := e2e[d.Name]; !ok {
			t.Errorf("end-to-end metric %s is not measured", d.Name)
		}
	}
}

func TestSameResult(t *testing.T) {
	want := [][]string{{"A", "1.0000001"}, {"B", "2"}, {"C", "2"}}
	if !sameResult([][]string{{"A", "1"}, {"B", "2"}, {"C", "2"}}, want) {
		t.Error("float within tolerance rejected")
	}
	if sameResult([][]string{{"C", "2"}, {"A", "1"}, {"B", "2"}}, want) {
		t.Error("reordered rows accepted")
	}
	if sameResult([][]string{{"A", "1.1"}, {"B", "2"}, {"C", "2"}}, want) {
		t.Error("wrong value accepted")
	}
	if sameResult([][]string{{"A", "1"}, {"B", "2"}}, want) {
		t.Error("missing row accepted")
	}
}
