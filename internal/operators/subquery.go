package operators

import (
	"encoding/binary"
	"fmt"

	"hyrise/internal/expression"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Subquery execution (paper §2.6): subselects run as if they were
// stand-alone queries. Non-correlated subqueries execute once; correlated
// ones execute per distinct parameter combination, memoized in the
// execution context — the memoization is what keeps the paper's
// "placeholders are replaced with the correlated attributes during the
// execution" strategy tractable.

type subqueryResult struct {
	scalar types.Value
	set    *expression.ValueSet
	exists bool
	err    error
}

// installSubqueryExecutors wires the evaluator callbacks to physical plan
// execution with memoization.
func (ctx *ExecContext) installSubqueryExecutors(ec *expression.Context) {
	ec.ExecScalarSubquery = func(sub *expression.Subquery, params []types.Value) (types.Value, error) {
		r := ctx.memoSubquery('s', sub, params, func(out *storage.Table, r *subqueryResult) (err error) {
			r.scalar, err = scalarFromTable(out)
			return err
		})
		return r.scalar, r.err
	}
	ec.ExecInSubquery = func(sub *expression.Subquery, params []types.Value) (*expression.ValueSet, error) {
		r := ctx.memoSubquery('i', sub, params, func(out *storage.Table, r *subqueryResult) (err error) {
			r.set, err = valueSetFromTable(out)
			return err
		})
		return r.set, r.err
	}
	ec.ExecExistsSubquery = func(sub *expression.Subquery, params []types.Value) (bool, error) {
		r := ctx.memoSubquery('e', sub, params, func(out *storage.Table, r *subqueryResult) error {
			r.exists = out.RowCount() > 0
			return nil
		})
		return r.exists, r.err
	}
}

// memoSubquery runs a subquery once per (kind, subquery, parameter values)
// and caches the outcome; derive fills the kind's field of the result from
// the subquery's output. The parameters are keyed exactly (AppendKey
// without CanonicalKey): a subquery may return its parameter, so 5 and 5.0,
// or 0.0 and -0.0, must not share an entry.
func (ctx *ExecContext) memoSubquery(kind byte, sub *expression.Subquery, params []types.Value, derive func(*storage.Table, *subqueryResult) error) *subqueryResult {
	key := binary.AppendUvarint([]byte{kind}, uint64(sub.ID))
	for _, p := range params {
		key = types.AppendKey(key, p)
	}
	if cached, ok := ctx.subqueryCache.Load(string(key)); ok {
		return cached.(*subqueryResult)
	}
	out, err := ctx.runSubquery(sub, params)
	r := &subqueryResult{err: err}
	if err == nil {
		r.err = derive(out, r)
	}
	ctx.subqueryCache.Store(string(key), r)
	return r
}

func (ctx *ExecContext) runSubquery(sub *expression.Subquery, params []types.Value) (*storage.Table, error) {
	plan, ok := sub.Plan.(Operator)
	if !ok {
		return nil, fmt.Errorf("operators: subquery %d holds %T, not a physical plan", sub.ID, sub.Plan)
	}
	return Execute(plan, ctx.child(params))
}

// scalarFromTable extracts the single value a scalar subquery must produce.
// Zero rows yield NULL (SQL semantics); more than one row is an error.
func scalarFromTable(t *storage.Table) (types.Value, error) {
	switch {
	case t.ColumnCount() < 1:
		return types.NullValue, fmt.Errorf("operators: scalar subquery with no columns")
	case t.RowCount() == 0:
		return types.NullValue, nil
	case t.RowCount() > 1:
		return types.NullValue, fmt.Errorf("operators: scalar subquery returned %d rows", t.RowCount())
	}
	for ci := 0; ci < t.ChunkCount(); ci++ {
		c := t.GetChunk(types.ChunkID(ci))
		if c.Size() > 0 {
			return c.GetSegment(0).ValueAt(0), nil
		}
	}
	return types.NullValue, nil
}

// valueSetFromTable collects the first column into a membership set.
func valueSetFromTable(t *storage.Table) (*expression.ValueSet, error) {
	if t.ColumnCount() < 1 {
		return nil, fmt.Errorf("operators: IN subquery with no columns")
	}
	set := expression.NewValueSet()
	for ci := 0; ci < t.ChunkCount(); ci++ {
		c := t.GetChunk(types.ChunkID(ci))
		if c.Size() == 0 {
			continue
		}
		vec := expression.VectorFromSegment(c.GetSegment(0))
		for i := 0; i < vec.N; i++ {
			set.Add(vec.ValueAt(i))
		}
	}
	return set, nil
}
