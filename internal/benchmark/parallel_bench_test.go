package benchmark

import (
	"math/rand"
	"testing"

	"hyrise/internal/expression"
	"hyrise/internal/operators"
	"hyrise/internal/scheduler"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Benchmarks for the morsel-driven table scan and the run-split sort, each
// with a serial sub-benchmark (no scheduler, fan-out 1) and a parallel one (a
// scheduler with one worker per CPU, fan-out by the parallelism rule), so the
// multi-core CI lane can gate `benchdiff speedup` on the ratio.

// microScanTable builds a multi-chunk int64 table where `v BETWEEN` bounds
// select roughly half the rows — enough surviving work per morsel that the
// dispatch overhead must be earned back.
func microScanTable(b *testing.B, n int) *storage.Table {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	defs := []storage.ColumnDefinition{
		{Name: "v", Type: types.TypeInt64},
		{Name: "payload", Type: types.TypeInt64},
	}
	t := storage.NewTable("scan", defs, 16384, false)
	for i := 0; i < n; i++ {
		if _, err := t.AppendRow([]types.Value{
			types.Int(int64(rng.Intn(1_000_000))),
			types.Int(int64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	t.FinalizeLastChunk()
	return t
}

func BenchmarkMicroScanParallel(b *testing.B) {
	n := microRows()
	table := microScanTable(b, n)
	sched := scheduler.NewNodeQueueScheduler(1, 0) // 0 = one worker per CPU
	defer sched.Shutdown()

	pred := &expression.Between{
		Child: &expression.BoundColumn{Index: 0},
		Lo:    expression.NewLiteral(types.Int(250_000)),
		Hi:    expression.NewLiteral(types.Int(750_000)),
	}
	cases := []struct {
		name  string
		sched scheduler.Scheduler
	}{
		{"serial", nil},
		{"parallel", sched},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := operators.NewExecContext(nil, tc.sched, nil)
				scan := operators.NewTableScan(&tableSource{table}, pred)
				out, err := operators.Execute(scan, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if out.RowCount() == 0 {
					b.Fatal("empty scan result")
				}
			}
		})
	}
}

func BenchmarkMicroSort(b *testing.B) {
	n := microRows()
	table := microScanTable(b, n)
	sched := scheduler.NewNodeQueueScheduler(1, 0)
	defer sched.Shutdown()

	cases := []struct {
		name  string
		sched scheduler.Scheduler
	}{
		{"serial", nil},
		{"parallel", sched},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := operators.NewExecContext(nil, tc.sched, nil)
				sort := operators.NewSort(&tableSource{table}, []operators.SortKey{
					{Expr: &expression.BoundColumn{Index: 0}},
					{Expr: &expression.BoundColumn{Index: 1}, Desc: true},
				})
				out, err := operators.Execute(sort, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if out.RowCount() != table.RowCount() {
					b.Fatal("sort dropped rows")
				}
			}
		})
	}
}
