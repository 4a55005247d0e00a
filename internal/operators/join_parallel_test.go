package operators

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"hyrise/internal/expression"
	"hyrise/internal/scheduler"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// --- differential join tests ----------------------------------------------
//
// Every join implementation is checked against an independent naive
// nested-loop reference computed directly over the row values. The hash
// join with several partitions must additionally match one partition row
// for row (not just as a set): every partition count emits the same probe
// order by construction.

// refJoin computes the expected join output as row strings, independent of
// any operator code. Key column is 0 on both sides; NULL keys never match.
func refJoin(mode JoinMode, left, right [][]types.Value) []string {
	render := func(vals ...types.Value) string {
		s := ""
		for i, v := range vals {
			if i > 0 {
				s += "|"
			}
			s += v.String()
		}
		return s
	}
	nullsFor := func(n int) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = types.NullValue
		}
		return out
	}
	var out []string
	matchedRight := make([]bool, len(right))
	for _, l := range left {
		matched := false
		for ri, r := range right {
			if l[0].IsNull() || r[0].IsNull() || !l[0].Equal(r[0]) {
				continue
			}
			matched = true
			matchedRight[ri] = true
			if mode != JoinModeSemi && mode != JoinModeAnti {
				out = append(out, render(append(append([]types.Value{}, l...), r...)...))
			}
		}
		switch {
		case mode == JoinModeSemi && matched, mode == JoinModeAnti && !matched:
			out = append(out, render(l...))
		case mode.nullExtendsRight() && !matched:
			out = append(out, render(append(append([]types.Value{}, l...), nullsFor(2)...)...))
		}
	}
	if mode.nullExtendsLeft() {
		for ri, m := range matchedRight {
			if !m {
				out = append(out, render(append(nullsFor(2), right[ri]...)...))
			}
		}
	}
	return out
}

// joinDataset is one differential-test input.
type joinDataset struct {
	name        string
	left, right [][]types.Value
}

func joinDatasets() []joinDataset {
	rng := rand.New(rand.NewSource(42))
	rows := func(n, keyRange, nullEvery int) [][]types.Value {
		out := make([][]types.Value, n)
		for i := range out {
			key := types.Value(types.Int(int64(rng.Intn(keyRange))))
			if nullEvery > 0 && i%nullEvery == 0 {
				key = types.NullValue
			}
			out[i] = []types.Value{key, types.Int(int64(i))}
		}
		return out
	}
	return []joinDataset{
		{"both_empty", nil, nil},
		{"empty_left", nil, rows(20, 5, 0)},
		{"empty_right", rows(20, 5, 0), nil},
		{"small_random", rows(50, 20, 0), rows(40, 20, 0)},
		{"null_keys", rows(60, 10, 4), rows(60, 10, 3)},
		{"duplicate_heavy", rows(120, 3, 0), rows(90, 3, 0)},
		{"no_overlap", rows(30, 5, 0), func() [][]types.Value {
			r := rows(30, 5, 0)
			for i := range r {
				if !r[i][0].IsNull() {
					r[i][0] = types.Int(r[i][0].I + 1000)
				}
			}
			return r
		}()},
		{"large_random", rows(3000, 100, 7), rows(2500, 100, 5)},
	}
}

func joinInputTables(t *testing.T, ds joinDataset, chunkSize int) (*storage.Table, *storage.Table) {
	t.Helper()
	defs := func(prefix string) []storage.ColumnDefinition {
		return []storage.ColumnDefinition{
			{Name: prefix + "_key", Type: types.TypeInt64, Nullable: true},
			{Name: prefix + "_seq", Type: types.TypeInt64},
		}
	}
	l := makeTable(t, nil, "l", defs("l"), chunkSize, ds.left)
	r := makeTable(t, nil, "r", defs("r"), chunkSize, ds.right)
	return l, r
}

func allJoinModes() []JoinMode {
	return []JoinMode{JoinModeInner, JoinModeLeft, JoinModeRight, JoinModeFull, JoinModeSemi, JoinModeAnti}
}

func TestJoinDifferentialAgainstReference(t *testing.T) {
	sched := scheduler.NewNodeQueueScheduler(1, 8)
	defer sched.Shutdown()

	for _, ds := range joinDatasets() {
		for _, mode := range allJoinModes() {
			t.Run(fmt.Sprintf("%s/%s", ds.name, mode), func(t *testing.T) {
				l, r := joinInputTables(t, ds, 64)
				want := refJoin(mode, ds.left, ds.right)
				sort.Strings(want)

				runWith := func(name string, ctx *ExecContext, op Operator) []string {
					t.Helper()
					out, err := Execute(op, ctx)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return tableRows(out)
				}

				serial := runWith("serial", NewExecContext(nil, nil, nil),
					NewHashJoin(mode, tableOp(l), tableOp(r), col(0), col(0), nil))

				// ForceParallel: 2 partitions without a scheduler, 8 on the
				// 8-worker scheduler.
				for _, s := range []scheduler.Scheduler{nil, sched} {
					radixCtx := NewExecContext(nil, s, nil)
					radixCtx.ForceParallel = true
					parts := radixCtx.fanOut(0)
					radix := runWith(fmt.Sprintf("radix%d", parts), radixCtx,
						NewHashJoin(mode, tableOp(l), tableOp(r), col(0), col(0), nil))
					// Radix must match serial exactly, including row order.
					if !reflect.DeepEqual(radix, serial) {
						t.Fatalf("radix(%d partitions) order differs from serial\nradix:  %v\nserial: %v", parts, radix, serial)
					}
				}

				sorted := append([]string(nil), serial...)
				sort.Strings(sorted)
				if !reflect.DeepEqual(sorted, want) {
					t.Fatalf("hash join differs from reference\ngot:  %v\nwant: %v", sorted, want)
				}

				smj := runWith("sortmerge", NewExecContext(nil, nil, nil),
					NewSortMergeJoin(mode, tableOp(l), tableOp(r), col(0), col(0), nil))
				sort.Strings(smj)
				if !reflect.DeepEqual(smj, want) {
					t.Fatalf("sort-merge join differs from reference\ngot:  %v\nwant: %v", smj, want)
				}

				nlj := runWith("nlj", NewExecContext(nil, nil, nil),
					NewNestedLoopJoin(mode, tableOp(l), tableOp(r), []expression.Expression{eq(col(0), col(2))}))
				sort.Strings(nlj)
				if !reflect.DeepEqual(nlj, want) {
					t.Fatalf("nested-loop join differs from reference\ngot:  %v\nwant: %v", nlj, want)
				}
			})
		}
	}
}

// TestRadixJoinAutoThreshold checks the parallelism rule as the join applies
// it to build + probe rows: small inputs and single-worker contexts use one
// partition, large multi-worker inputs one per worker rounded up to a power
// of two and capped, and ForceParallel fans out regardless of size.
func TestRadixJoinAutoThreshold(t *testing.T) {
	ctx := NewExecContext(nil, nil, nil)
	if got := ctx.fanOut(1 << 20); got != 1 {
		t.Errorf("no scheduler: partitions = %d, want 1", got)
	}
	ctx.ForceParallel = true
	if got := ctx.fanOut(0); got != 2 {
		t.Errorf("forced without scheduler: partitions = %d, want 2", got)
	}
	for _, tc := range []struct{ workers, work, want int }{
		{4, 100, 1},
		{4, parallelWork - 1, 1},
		{4, parallelWork, 4},
		{5, parallelWork, 8},
		{1, 1 << 20, 1},
		{300, 1 << 20, maxFanOut},
	} {
		sched := scheduler.NewNodeQueueScheduler(1, tc.workers)
		ctx := NewExecContext(nil, sched, nil)
		if got := ctx.fanOut(float64(tc.work)); got != tc.want {
			t.Errorf("%d workers, work %d: partitions = %d, want %d", tc.workers, tc.work, got, tc.want)
		}
		sched.Shutdown()
	}
}

// TestRadixJoinCancellation cancels a radix join mid-flight and verifies the
// operator returns the context error and every scheduled task completes (no
// deadlock: Shutdown would hang on stuck tasks, and WaitAll inside the join
// would never return).
func TestRadixJoinCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200000
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{types.Int(int64(rng.Intn(1000))), types.Int(int64(i))}
	}
	ds := joinDataset{name: "cancel", left: rows, right: rows}
	l, r := joinInputTables(t, ds, 4096)

	sched := scheduler.NewNodeQueueScheduler(1, 4)
	defer sched.Shutdown()

	cctx, cancel := context.WithCancel(context.Background())
	ctx := NewExecContext(nil, sched, nil)
	ctx.Ctx = cctx
	ctx.ForceParallel = true

	done := make(chan error, 1)
	go func() {
		_, err := Execute(NewHashJoin(JoinModeInner, tableOp(l), tableOp(r), col(0), col(0), nil), ctx)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond) // let the join get going
	cancel()

	select {
	case err := <-done:
		// The race between cancel and completion is fine either way; what
		// matters is that a loss surfaces context.Canceled, not a hang.
		if err != nil && err != context.Canceled {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("join did not return after cancellation (deadlocked tasks?)")
	}
}

// tableOp wraps a materialized table as an operator input.
func tableOp(t *storage.Table) Operator { return &tableWrapper{t} }

type tableWrapper struct{ table *storage.Table }

func (w *tableWrapper) Name() string       { return "TestTable" }
func (w *tableWrapper) Inputs() []Operator { return nil }
func (w *tableWrapper) Run(*ExecContext, []*storage.Table) (*storage.Table, error) {
	return w.table, nil
}
