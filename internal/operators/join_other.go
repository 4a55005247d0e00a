package operators

import (
	"fmt"
	"sort"

	"hyrise/internal/expression"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// SortMergeJoin is the alternative equi-join implementation (paper §2.1):
// both sides are sorted on the key and merged; equal-key blocks produce the
// candidate pairs.
type SortMergeJoin struct {
	joinCommon
	LeftKey  expression.Expression
	RightKey expression.Expression
}

// NewSortMergeJoin builds a sort-merge join.
func NewSortMergeJoin(mode JoinMode, left, right Operator, leftKey, rightKey expression.Expression, residuals []expression.Expression) *SortMergeJoin {
	return &SortMergeJoin{
		joinCommon: joinCommon{Mode: mode, Residuals: residuals, left: left, right: right},
		LeftKey:    leftKey,
		RightKey:   rightKey,
	}
}

// Name implements Operator.
func (j *SortMergeJoin) Name() string {
	return fmt.Sprintf("SortMergeJoin(%s, %s = %s)", j.Mode, j.LeftKey, j.RightKey)
}

// Run implements Operator.
func (j *SortMergeJoin) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	leftT, rightT := inputs[0], inputs[1]
	leftVals, leftRows, err := evalKeyOverTable(ctx, leftT, j.LeftKey)
	if err != nil {
		return nil, err
	}
	rightVals, rightRows, err := evalKeyOverTable(ctx, rightT, j.RightKey)
	if err != nil {
		return nil, err
	}

	leftOrder := sortedOrder(leftVals)
	rightOrder := sortedOrder(rightVals)

	var ps pairSet

	li, ri := 0, 0
	for li < len(leftOrder) && ri < len(rightOrder) {
		lv := types.CanonicalKey(leftVals[leftOrder[li]])
		rv := types.CanonicalKey(rightVals[rightOrder[ri]])
		if lv.IsNull() {
			li++
			continue
		}
		if rv.IsNull() {
			ri++
			continue
		}
		c, ok := types.Compare(lv, rv)
		if !ok {
			return nil, fmt.Errorf("operators: incomparable join keys %s and %s", lv.Type, rv.Type)
		}
		switch {
		case c < 0:
			li++
		case c > 0:
			ri++
		default:
			// Find the extent of the equal-key blocks on both sides.
			lEnd := li
			for lEnd < len(leftOrder) && types.CanonicalKey(leftVals[leftOrder[lEnd]]).Equal(lv) {
				lEnd++
			}
			rEnd := ri
			for rEnd < len(rightOrder) && types.CanonicalKey(rightVals[rightOrder[rEnd]]).Equal(rv) {
				rEnd++
			}
			for a := li; a < lEnd; a++ {
				for b := ri; b < rEnd; b++ {
					ps.append(leftRows[leftOrder[a]], rightRows[rightOrder[b]],
						int32(leftOrder[a]), int32(rightOrder[b]))
				}
			}
			li, ri = lEnd, rEnd
		}
	}

	surviving, err := j.filterResiduals(ctx, leftT, rightT, ps.left, ps.right)
	if err != nil {
		return nil, err
	}
	return j.finish(leftT, rightT, leftRows, rightRows, ps, surviving)
}

// sortedOrder returns row indices ordered by key value (NULLs last).
func sortedOrder(vals []types.Value) []int {
	order := make([]int, len(vals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return compareWithNulls(vals[order[a]], vals[order[b]]) < 0
	})
	return order
}

// nljBlockSize bounds the candidate-pair batches of the nested-loop join.
const nljBlockSize = 1 << 14

// NestedLoopJoin evaluates arbitrary predicates over every pair of rows; it
// is the fallback for non-equi joins and implements cross joins (empty
// predicate list).
type NestedLoopJoin struct {
	joinCommon
}

// NewNestedLoopJoin builds a nested-loop join.
func NewNestedLoopJoin(mode JoinMode, left, right Operator, predicates []expression.Expression) *NestedLoopJoin {
	return &NestedLoopJoin{joinCommon{Mode: mode, Residuals: predicates, left: left, right: right}}
}

// Name implements Operator.
func (j *NestedLoopJoin) Name() string {
	return fmt.Sprintf("NestedLoopJoin(%s, %d predicates)", j.Mode, len(j.Residuals))
}

// Run implements Operator.
func (j *NestedLoopJoin) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	leftT, rightT := inputs[0], inputs[1]
	leftRows := flattenRows(leftT)
	rightRows := flattenRows(rightT)

	matched := make([]bool, len(leftRows))
	matchedRight := make([]bool, len(rightRows))
	var outLeft, outRight types.PosList
	emitPairs := j.Mode != JoinModeSemi && j.Mode != JoinModeAnti

	// Process pair batches of bounded size to keep memory flat.
	rowsPerBatch := max(1, nljBlockSize/max(1, len(rightRows)))
	for lStart := 0; lStart < len(leftRows); lStart += rowsPerBatch {
		lEnd := min(lStart+rowsPerBatch, len(leftRows))
		var ps pairSet
		for li := lStart; li < lEnd; li++ {
			for ri := range rightRows {
				ps.append(leftRows[li], rightRows[ri], int32(li), int32(ri))
			}
		}
		surviving, err := j.filterResiduals(ctx, leftT, rightT, ps.left, ps.right)
		if err != nil {
			return nil, err
		}
		for _, p := range surviving {
			matched[ps.leftIdx[p]] = true
			matchedRight[ps.rightIdx[p]] = true
			if emitPairs {
				outLeft = append(outLeft, ps.left[p])
				outRight = append(outRight, ps.right[p])
			}
		}
	}

	switch j.Mode {
	case JoinModeSemi, JoinModeAnti:
		var keep types.PosList
		want := j.Mode == JoinModeSemi
		for i, m := range matched {
			if m == want {
				keep = append(keep, leftRows[i])
			}
		}
		return j.assemble(leftT, rightT, keep, nil, nil, nil)
	default:
		var unmatchedLeft, unmatchedRight types.PosList
		if j.Mode.nullExtendsRight() {
			for i, m := range matched {
				if !m {
					unmatchedLeft = append(unmatchedLeft, leftRows[i])
				}
			}
		}
		if j.Mode.nullExtendsLeft() {
			for i, m := range matchedRight {
				if !m {
					unmatchedRight = append(unmatchedRight, rightRows[i])
				}
			}
		}
		return j.assemble(leftT, rightT, outLeft, outRight, unmatchedLeft, unmatchedRight)
	}
}
