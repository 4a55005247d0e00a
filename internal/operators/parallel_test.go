package operators

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hyrise/internal/expression"
	"hyrise/internal/scheduler"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Differential harness for the morsel scan and the run-split sort: every
// dataset × predicate/keys combination runs once with fan-out 1 and once
// with ForceParallel on a real multi-worker scheduler, and the outputs must
// be bit-for-bit equal — same rows, same order. Run under -race this also
// shakes out data races in the disjoint-slot writes.

// parallelCtx builds an ExecContext with ForceParallel on a scheduler, so
// even small fixtures fan out across several tasks.
func parallelCtx(sm *storage.StorageManager, sched scheduler.Scheduler) *ExecContext {
	ctx := NewExecContext(sm, sched, nil)
	ctx.ForceParallel = true
	return ctx
}

// diffTables builds the adversarial datasets: empty, single-chunk,
// duplicate-heavy, an all-NULL column, and row counts landing exactly on
// chunk boundaries.
func diffTables(t *testing.T, sm *storage.StorageManager) []*storage.Table {
	t.Helper()
	defs := []storage.ColumnDefinition{
		{Name: "k", Type: types.TypeInt64},
		{Name: "s", Type: types.TypeString, Nullable: true},
		{Name: "allnull", Type: types.TypeFloat64, Nullable: true},
	}
	rng := rand.New(rand.NewSource(7))
	build := func(name string, chunkSize, n int, dupes int) *storage.Table {
		rows := make([][]types.Value, n)
		for i := 0; i < n; i++ {
			s := types.Value(types.Str(fmt.Sprintf("s%02d", i%13)))
			if i%5 == 0 {
				s = types.NullValue
			}
			k := int64(i)
			if dupes > 0 {
				k = int64(rng.Intn(dupes))
			}
			rows[i] = []types.Value{types.Int(k), s, types.NullValue}
		}
		return makeTable(t, sm, name, defs, chunkSize, rows)
	}
	return []*storage.Table{
		build("empty", 5, 0, 0),
		build("single_chunk", 100, 4, 0),
		build("dupe_heavy", 5, 200, 3),   // 40 chunks, 3 distinct keys
		build("boundary", 5, 100, 0),     // rows land exactly on chunk edges
		build("many_chunks", 5, 203, 17), // ragged tail chunk
	}
}

func scanPredicates() map[string]expression.Expression {
	return map[string]expression.Expression{
		"eq":           eq(col(0), lit(types.Int(1))),
		"between_edge": &expression.Between{Child: col(0), Lo: lit(types.Int(4)), Hi: lit(types.Int(10))}, // spans a 5-row chunk boundary
		"lt":           &expression.Comparison{Op: expression.Lt, Left: col(0), Right: lit(types.Int(50))},
		"is_null":      &expression.IsNull{Child: col(1)},
		"all_null_col": &expression.IsNull{Child: col(2), Negate: true}, // matches nothing
		"complex": eq(
			&expression.Arithmetic{Op: expression.Mod, Left: col(0), Right: lit(types.Int(7))},
			lit(types.Int(2)),
		), // not a simple predicate: exercises the fallback ladder per morsel
	}
}

func TestParallelScanMatchesSerial(t *testing.T) {
	sm := storage.NewStorageManager()
	tables := diffTables(t, sm)
	sched := scheduler.NewNodeQueueScheduler(1, 4)
	defer sched.Shutdown()

	for _, table := range tables {
		for name, pred := range scanPredicates() {
			t.Run(table.Name()+"/"+name, func(t *testing.T) {
				sctx := NewExecContext(sm, nil, nil)
				serial, err := Execute(NewTableScan(&GetTable{TableName: table.Name()}, pred), sctx)
				if err != nil {
					t.Fatal(err)
				}
				par, err := Execute(NewTableScan(&GetTable{TableName: table.Name()}, pred), parallelCtx(sm, sched))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tableRows(serial), tableRows(par)) {
					t.Fatalf("parallel scan diverged from serial:\nserial: %v\nparallel: %v",
						tableRows(serial), tableRows(par))
				}
			})
		}
	}
}

func TestParallelSortMatchesSerial(t *testing.T) {
	sm := storage.NewStorageManager()
	tables := diffTables(t, sm)
	sched := scheduler.NewNodeQueueScheduler(1, 4)
	defer sched.Shutdown()

	keySets := map[string][]SortKey{
		// Heavy ties: stability is the whole test — equal keys must keep
		// their original relative order, exactly like sort.SliceStable.
		"dupes_asc":  {{Expr: col(0)}},
		"dupes_desc": {{Expr: col(0), Desc: true}},
		"two_keys":   {{Expr: col(1)}, {Expr: col(0), Desc: true}},
		"null_key":   {{Expr: col(2)}, {Expr: col(0)}},
	}
	for _, table := range tables {
		for name, keys := range keySets {
			t.Run(table.Name()+"/"+name, func(t *testing.T) {
				sctx := NewExecContext(sm, nil, nil)
				serial, err := Execute(NewSort(&GetTable{TableName: table.Name()}, keys), sctx)
				if err != nil {
					t.Fatal(err)
				}
				par, err := Execute(NewSort(&GetTable{TableName: table.Name()}, keys), parallelCtx(sm, sched))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tableRows(serial), tableRows(par)) {
					t.Fatalf("parallel sort diverged from serial:\nserial: %v\nparallel: %v",
						tableRows(serial), tableRows(par))
				}
			})
		}
	}
}

// TestParallelScanCancellation cancels a statement while morsel tasks are in
// flight and asserts the scan surfaces the cancellation without deadlocking
// (the test hanging would trip the go test timeout).
func TestParallelScanCancellation(t *testing.T) {
	sm := storage.NewStorageManager()
	table := numbersTable(t, sm, 64, 20_000)
	sched := scheduler.NewNodeQueueScheduler(1, 4)
	defer sched.Shutdown()
	pred := &expression.Comparison{Op: expression.Ge, Left: col(0), Right: lit(types.Int(0))}

	t.Run("canceled_before_start", func(t *testing.T) {
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		ctx := parallelCtx(sm, sched)
		ctx.Ctx = cctx
		if _, err := Execute(NewTableScan(&GetTable{TableName: table.Name()}, pred), ctx); err == nil {
			t.Fatal("want cancellation error, got nil")
		}
	})
	t.Run("canceled_mid_flight", func(t *testing.T) {
		for i := 0; i < 10; i++ {
			cctx, cancel := context.WithCancel(context.Background())
			ctx := parallelCtx(sm, sched)
			ctx.Ctx = cctx
			done := make(chan error, 1)
			go func() {
				_, err := Execute(NewTableScan(&GetTable{TableName: table.Name()}, pred), ctx)
				done <- err
			}()
			cancel() // races with morsel dispatch on purpose
			// Completing at all is the assertion; either outcome (finished
			// before the cancel, or canceled) is legal.
			<-done
		}
	})
	t.Run("sort_canceled_before_start", func(t *testing.T) {
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		ctx := parallelCtx(sm, sched)
		ctx.Ctx = cctx
		if _, err := Execute(NewSort(&GetTable{TableName: table.Name()}, []SortKey{{Expr: col(0)}}), ctx); err == nil {
			t.Fatal("want cancellation error, got nil")
		}
	})
}

// TestScanParallelDecision exercises the parallelism rule as the scan applies
// it: the work is rows × selectivity (floored at 1/16), not a bare row count.
func TestScanParallelDecision(t *testing.T) {
	sm := storage.NewStorageManager()
	table := numbersTable(t, sm, 1024, 20_000)
	sched := scheduler.NewNodeQueueScheduler(1, 4)
	defer sched.Shutdown()
	cache := statistics.NewCache(statistics.EqualHeight)
	cache.Get(table) // build once; the rule only ever Peeks

	ctx := NewExecContext(sm, sched, nil)
	ctx.Estimator = cache.Peek
	selective := analyzeSimplePredicate(eq(col(0), lit(types.Int(3))), nil)
	wide := analyzeSimplePredicate(
		&expression.Comparison{Op: expression.Ge, Left: col(0), Right: lit(types.Int(0))}, nil)
	if selective == nil || wide == nil {
		t.Fatal("predicates not recognized as simple")
	}

	if parts, est := ctx.scanFanOut(table, wide); parts != 4 || est < parallelWork {
		t.Fatalf("wide predicate over 20000 rows: parts = %d, est_rows = %d; want 4 parts", parts, est)
	}
	// ~1/20000 selectivity floors at 1/16: 20000 * 1/16 = 1250 < 16384.
	if parts, _ := ctx.scanFanOut(table, selective); parts != 1 {
		t.Fatalf("selective predicate: parts = %d, want 1", parts)
	}
	ctx.Scheduler = nil
	if parts, est := ctx.scanFanOut(table, wide); parts != 1 || est != -1 {
		t.Fatalf("no scheduler: parts = %d, est_rows = %d; want 1 part and no estimate", parts, est)
	}
	if got := len(morselRanges(table.Chunks(), 4)); got != 4 {
		t.Fatalf("20 chunks in 4 parts: %d morsels, want 4", got)
	}
	if got := len(morselRanges(table.Chunks(), 1)); got != 1 {
		t.Fatalf("20 chunks in 1 part: %d morsels, want 1", got)
	}
}
