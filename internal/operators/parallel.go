package operators

import (
	"time"

	"hyrise/internal/encoding"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
)

// This file holds the one parallelism rule of the physical operators (paper
// §2.2 and §2.9: chunks are the built-in partitioning, and work runs as
// scheduler tasks). Each operator has a single kernel that takes a width —
// scan morsels, join partitions, merge shards, sort runs — and fanOut picks
// that width from the operator's estimated work. Width 1 is serial execution;
// there is no separate serial path.

const (
	// parallelWork is the estimated work (rows touched) at which an operator
	// fans out: below it, task dispatch and the split/merge steps cost more
	// than they save.
	parallelWork = 16384
	// maxFanOut caps the width; beyond it per-partition fixed costs (map
	// allocation, task scheduling) dominate.
	maxFanOut = 256
	// scanSelectivityFloor bounds the selectivity in a scan's work estimate
	// from below: even a point lookup must visit every row of an unpruned
	// segment, so per-row scan cost never drops to zero with the estimate.
	scanSelectivityFloor = 1.0 / 16
)

// workers is how many tasks can run at once: the scheduler's worker count,
// and at least 2 under ForceParallel.
func (ctx *ExecContext) workers() int {
	w := 1
	if ctx.Scheduler != nil {
		w = ctx.Scheduler.WorkerCount()
	}
	if ctx.ForceParallel && w < 2 {
		w = 2
	}
	return w
}

// fanOut is the parallelism rule. It returns 1 unless more than one worker
// can run and the estimated work reaches parallelWork (ForceParallel skips
// the work test). Otherwise it returns the worker count rounded up to a power
// of two — hash partitions and merge shards select by masking — capped at
// maxFanOut. The estimated work is rows × max(selectivity, 1/16) for a scan,
// build + probe rows for a join, partial groups for an aggregate merge, and
// input rows for a sort.
func (ctx *ExecContext) fanOut(work float64) int {
	w := ctx.workers()
	if w <= 1 || (!ctx.ForceParallel && work < parallelWork) {
		return 1
	}
	return min(nextPow2(w), maxFanOut)
}

// nextPow2 rounds n up to a power of two.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// morsel is a run of consecutive chunks processed by one task.
type morsel struct {
	lo, hi int // chunk index range [lo, hi)
}

// morselRanges splits the chunk list into about parts morsels of similar row
// counts; parts = 1 yields a single morsel. Every chunk lands in exactly one
// morsel and morsels cover chunks in order, so per-chunk outputs keep their
// slots and the merged result does not depend on the width.
func morselRanges(chunks []*storage.Chunk, parts int) []morsel {
	if len(chunks) == 0 {
		return nil
	}
	if parts <= 1 {
		return []morsel{{lo: 0, hi: len(chunks)}}
	}
	total := 0
	for _, c := range chunks {
		total += c.Size()
	}
	target := max((total+parts-1)/parts, 1)
	var out []morsel
	lo, acc := 0, 0
	for ci, c := range chunks {
		acc += c.Size()
		if acc >= target {
			out = append(out, morsel{lo: lo, hi: ci + 1})
			lo, acc = ci+1, 0
		}
	}
	if lo < len(chunks) {
		out = append(out, morsel{lo: lo, hi: len(chunks)})
	}
	return out
}

// estimateScanSelectivity estimates the fraction of rows a simple predicate
// keeps, from the table's cached histograms. Returns 1 (no reduction) when
// no statistics are available, the predicate is not simple, or the shape is
// not estimable — the rule then falls back to the raw row count, which is
// the conservative direction (more parallelism, never less correctness).
func (ctx *ExecContext) estimateScanSelectivity(input *storage.Table, simple *simplePredicate) float64 {
	if simple == nil || ctx.Estimator == nil {
		return 1
	}
	ts := ctx.Estimator(input)
	if ts == nil || int(simple.column) >= len(ts.Columns) {
		return 1
	}
	col := simple.column
	pr := &simple.pred
	switch pr.Op {
	case encoding.ScanEq:
		return ts.EstimateEquals(col, pr.Value)
	case encoding.ScanNe:
		return ts.EstimateNotEquals(col, pr.Value)
	case encoding.ScanLt, encoding.ScanLe:
		return ts.EstimateRange(col, nil, &pr.Value)
	case encoding.ScanGt, encoding.ScanGe:
		return ts.EstimateRange(col, &pr.Value, nil)
	case encoding.ScanBetween:
		return ts.EstimateRange(col, &pr.Lo, &pr.Hi)
	case encoding.ScanIsNull:
		if cs := ts.Columns[col]; cs != nil {
			return cs.NullFraction()
		}
	case encoding.ScanIsNotNull:
		if cs := ts.Columns[col]; cs != nil {
			return 1 - cs.NullFraction()
		}
	}
	return 1
}

// scanFanOut applies the rule to a scan: work is rows × selectivity, floored
// at scanSelectivityFloor. It also returns the estimated qualifying rows
// (-1 when no estimate was made because only one worker can run).
func (ctx *ExecContext) scanFanOut(input *storage.Table, simple *simplePredicate) (parts int, estRows int64) {
	if ctx.workers() <= 1 {
		return 1, -1
	}
	total := float64(input.RowCount())
	sel := ctx.estimateScanSelectivity(input, simple)
	return ctx.fanOut(total * max(sel, scanSelectivityFloor)), int64(total * sel)
}

// noteScanMorsels files a scan's morsel count, the wall time of a fanned-out
// scan, and the estimate behind the decision. The scan.morsels metric counts
// only real fan-out (more than one morsel).
func (ctx *ExecContext) noteScanMorsels(op Operator, morsels int, wallNS, estRows int64) {
	if m := ctx.Metrics; m != nil && morsels > 1 {
		m.ScanMorsels.Add(int64(morsels))
		m.ScanParallelNS.Add(wallNS)
	}
	if tr := ctx.Trace; tr != nil {
		tr.AddOpAttr(op, "morsels", int64(morsels))
		if morsels > 1 {
			tr.AddOpAttr(op, "parallel_ns", wallNS)
		}
		if estRows >= 0 {
			tr.AddOpAttr(op, "est_rows", estRows)
		}
	}
}

// noteSortRuns files a fanned-out sort's run count and the wall time of its
// run sorting plus k-way merge.
func (ctx *ExecContext) noteSortRuns(op Operator, runs int, wallNS int64) {
	if m := ctx.Metrics; m != nil {
		m.SortRuns.Add(int64(runs))
		m.SortParallelNS.Add(wallNS)
	}
	if tr := ctx.Trace; tr != nil {
		tr.AddOpAttr(op, "sort_runs", int64(runs))
		tr.AddOpAttr(op, "parallel_ns", wallNS)
	}
}

// wallClock starts a wall-clock measurement only when someone will read it
// (metrics or trace attached).
func (ctx *ExecContext) wallClock() time.Time {
	if ctx.Metrics == nil && ctx.Trace == nil {
		return time.Time{}
	}
	return time.Now()
}

// sinceNS is time.Since tolerating the zero start wallClock returns.
func sinceNS(t0 time.Time) int64 {
	if t0.IsZero() {
		return 0
	}
	return time.Since(t0).Nanoseconds()
}

// Estimator is the narrow statistics hook the scan's work estimate uses: it
// returns cached table statistics (nil when none have been built yet).
// Wired by the pipeline to the engine's statistics cache.
type Estimator func(t *storage.Table) *statistics.TableStatistics
