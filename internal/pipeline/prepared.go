package pipeline

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hyrise/internal/expression"
	"hyrise/internal/lqp"
	"hyrise/internal/sqlparser"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// This file implements the extended-query protocol's server side of prepared
// statements (paper §2.6: "for prepared statements, we store placeholders
// instead of actual values"). Parse-time work — lexing, parsing, semantic
// validation, parameter-type inference, and planning — happens once per SQL
// text per session; Execute binds values into the cached physical plan
// through ExecContext.Params without touching the AST, so one plan serves
// arbitrarily many executions concurrently.

// preparedCacheSize bounds the per-session prepared-plan cache. Each entry
// is one parsed/planned statement; OLTP workloads cycle through a handful.
const preparedCacheSize = 256

// invalidatePlans drops every cached physical plan. Called after DDL: plans
// embed *storage.Table pointers and must not survive a drop or re-create of
// a referenced table. Epoch comparisons catch stale plans on read anyway;
// the eager clear just frees them promptly.
func (e *Engine) invalidatePlans() { e.planCache.Clear() }

// PreparedStatement is the parsed, validated, and (when possible) planned
// form of one SQL text, produced by the extended protocol's Parse message.
// It is immutable after preparation and safe to execute repeatedly.
type PreparedStatement struct {
	// SQL is the trimmed statement text.
	SQL string
	// Fingerprint is the normalized statement key (statement statistics,
	// session plan cache).
	Fingerprint string
	// Stmt is the parsed AST; nil for an empty statement (Execute must
	// answer EmptyQueryResponse).
	Stmt sqlparser.Statement
	// NumParams is the number of placeholder slots ($1..$N / ?).
	NumParams int
	// ParamTypes are the inferred target types per slot; TypeNull marks a
	// slot whose type could not be derived (bound text is then typed by the
	// classic int→float→string heuristic).
	ParamTypes []types.DataType
	// Columns and ColumnTypes describe the result set; nil when the
	// statement returns no rows (DML, DDL, transaction control — the
	// protocol's Describe answers NoData then).
	Columns     []string
	ColumnTypes []types.DataType
	// Tag is the CommandComplete tag stem ("SELECT", "INSERT", "BEGIN", ...).
	Tag string

	// plan is the parameterized physical plan (Parameter nodes intact,
	// bound per execution via ExecContext.Params). nil when the statement
	// shape requires per-execution literal binding; see PrepareStatement.
	plan *cachedPlan
	// epoch is the catalog epoch at preparation; a mismatch at execution
	// falls back to a fresh parse+plan (a DDL ran in between).
	epoch int64
}

// Empty reports whether the statement is the empty query.
func (p *PreparedStatement) Empty() bool { return p.Stmt == nil }

// ReturnsRows reports whether Execute produces DataRow messages.
func (p *PreparedStatement) ReturnsRows() bool { return len(p.Columns) > 0 }

// PrepareStatement parses, validates, and plans one SQL text for repeated
// execution. Errors — lexical, syntactic, or semantic (unknown table or
// column) — surface here, at Parse time, exactly like Postgres reports them.
// Results are cached per session keyed by fingerprint, guarded by exact SQL
// text (different literals share a fingerprint) and by catalog epoch (plans
// embed table pointers), so a driver that re-Parses every query still plans
// each distinct statement once.
func (s *Session) PrepareStatement(sql string) (*PreparedStatement, error) {
	e := s.engine
	trimmed := strings.TrimSpace(sql)
	fp := sqlparser.Fingerprint(trimmed)
	epoch := e.sm.Epoch()
	if ps, ok := s.prepCache.Get(fp); ok && ps.SQL == trimmed && ps.epoch == epoch {
		e.preparedHits.Add(1)
		return ps, nil
	}
	e.preparedMisses.Add(1)
	ps, err := e.prepare(trimmed, fp, epoch)
	if err != nil {
		return nil, err
	}
	s.prepCache.Put(fp, ps)
	return ps, nil
}

// prepare builds a PreparedStatement from scratch.
func (e *Engine) prepare(sql, fp string, epoch int64) (*PreparedStatement, error) {
	ps := &PreparedStatement{SQL: sql, Fingerprint: fp, epoch: epoch}
	if sql == "" {
		return ps, nil
	}
	stmts, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch len(stmts) {
	case 0:
		return ps, nil
	case 1:
	default:
		return nil, fmt.Errorf("pipeline: cannot insert multiple commands into a prepared statement")
	}
	stmt := stmts[0]
	ps.Stmt = stmt
	ps.NumParams = countParams(stmt)
	ps.ParamTypes = e.inferParamTypes(stmt, ps.NumParams)
	ps.Tag = statementTag(stmt)

	switch stmt.(type) {
	case *sqlparser.SelectStatement, *sqlparser.InsertStatement,
		*sqlparser.UpdateStatement, *sqlparser.DeleteStatement:
	default:
		// DDL and transaction control: no plan, no result set.
		return ps, nil
	}
	// Control functions are intercepted before planning (executeStatement
	// handles them); they answer a single int64 column.
	if _, ok := cancelQueryCall(stmt); ok {
		ps.Columns = []string{"cancel_query"}
		ps.ColumnTypes = []types.DataType{types.TypeInt64}
		return ps, nil
	}
	if promoteReplicaCall(stmt) {
		ps.Columns = []string{"promote_replica"}
		ps.ColumnTypes = []types.DataType{types.TypeInt64}
		return ps, nil
	}

	if ps.NumParams > 0 && statementHasSubquery(stmt) {
		// Subquery plans bind their own Parameter slots per outer row
		// (correlation), so prepared parameters reaching a subquery plan
		// would collide with correlation slots. Validate the shape with
		// dummy bindings and re-bind literals per execution instead.
		return e.prepareFallback(ps)
	}
	var timing Timing
	plan, err := e.buildPlan(stmt, &timing)
	if err != nil {
		if ps.NumParams == 0 {
			return nil, err
		}
		// Planning around unbound parameters can fail where the bound form
		// would not (say, a bare parameter in the projection list has no
		// type yet). Retry with dummy values: success means only the
		// parameterized plan is unsupported — fall back to per-execution
		// binding; failure is a genuine semantic error, reported at Parse
		// time as Postgres does.
		return e.prepareFallback(ps)
	}
	ps.plan = plan
	if ps.Tag == "SELECT" {
		ps.Columns = plan.columns
		ps.ColumnTypes = plan.colTypes
	}
	return ps, nil
}

// prepareFallback validates a statement that cannot carry a parameterized
// plan by planning a dummy-bound copy. The throwaway plan supplies the
// result-set shape for Describe; execution re-parses and binds literal
// values each time.
func (e *Engine) prepareFallback(ps *PreparedStatement) (*PreparedStatement, error) {
	stmts, err := sqlparser.Parse(ps.SQL) // fresh AST: binding mutates it
	if err != nil {
		return nil, err
	}
	stmt := stmts[0]
	if err := lqp.BindParameters(stmt, dummyParams(ps.ParamTypes)); err != nil {
		return nil, err
	}
	var timing Timing
	plan, err := e.buildPlan(stmt, &timing)
	if err != nil {
		return nil, err
	}
	if ps.Tag == "SELECT" {
		ps.Columns = plan.columns
		ps.ColumnTypes = plan.colTypes
	}
	return ps, nil
}

// dummyParams builds typed zero values for shape validation.
func dummyParams(paramTypes []types.DataType) []types.Value {
	out := make([]types.Value, len(paramTypes))
	for i, dt := range paramTypes {
		switch dt {
		case types.TypeInt64:
			out[i] = types.Int(0)
		case types.TypeFloat64:
			out[i] = types.Float(0)
		default:
			out[i] = types.Str("")
		}
	}
	return out
}

// ExecutePreparedStatement runs a prepared statement with the given
// parameter values. Statements carrying a parameterized plan execute it
// directly (no parsing, no planning); the rest re-parse and bind literals.
func (s *Session) ExecutePreparedStatement(ctx context.Context, ps *PreparedStatement, params []types.Value) (*Result, error) {
	e := s.engine
	if ps.Empty() {
		return nil, fmt.Errorf("pipeline: cannot execute an empty prepared statement")
	}
	if len(params) != ps.NumParams {
		return nil, fmt.Errorf("pipeline: bind supplies %d parameters, but the statement requires %d", len(params), ps.NumParams)
	}
	switch ps.Stmt.(type) {
	case *sqlparser.SelectStatement, *sqlparser.InsertStatement,
		*sqlparser.UpdateStatement, *sqlparser.DeleteStatement:
	default:
		// Transaction control and DDL run outside the planned path. The AST
		// is reusable: their execution never mutates it.
		qctx, finish := s.beginQuery(ctx, ps.SQL)
		defer finish()
		return s.executeStatement(qctx, ps.Stmt, ps.SQL, false, 0)
	}
	qctx, finish := s.beginQuery(ctx, ps.SQL)
	defer finish()
	if e.readOnly.Load() && !promoteReplicaCall(ps.Stmt) {
		if name := writeStatementName(ps.Stmt); name != "" {
			return nil, fmt.Errorf("%w: cannot execute %s", ErrReadOnly, name)
		}
	}
	if ps.plan != nil && ps.epoch == e.sm.Epoch() {
		return s.runPlanned(qctx, ps.Stmt, ps.SQL, false, ps.plan, params, 0)
	}
	// No parameterized plan (unsupported shape, control function) or the
	// catalog moved since Parse: re-parse and bind literal values.
	start := time.Now()
	stmts, err := sqlparser.Parse(ps.SQL)
	if err != nil {
		return nil, err
	}
	stmt := stmts[0]
	if ps.NumParams > 0 {
		if err := lqp.BindParameters(stmt, params); err != nil {
			return nil, err
		}
	}
	return s.executeStatement(qctx, stmt, ps.SQL, false, time.Since(start))
}

// statementTag names the CommandComplete tag stem for any statement kind.
func statementTag(stmt sqlparser.Statement) string {
	switch st := stmt.(type) {
	case *sqlparser.SelectStatement:
		return "SELECT"
	case *sqlparser.InsertStatement:
		return "INSERT"
	case *sqlparser.UpdateStatement:
		return "UPDATE"
	case *sqlparser.DeleteStatement:
		return "DELETE"
	case *sqlparser.CreateTableStatement:
		return "CREATE TABLE"
	case *sqlparser.CreateViewStatement:
		return "CREATE VIEW"
	case *sqlparser.DropStatement:
		if st.IsView {
			return "DROP VIEW"
		}
		return "DROP TABLE"
	case *sqlparser.TransactionStatement:
		switch st.Kind {
		case sqlparser.TxBegin:
			return "BEGIN"
		case sqlparser.TxCommit:
			return "COMMIT"
		default:
			return "ROLLBACK"
		}
	default:
		return "SELECT"
	}
}

// --- statement traversal ---------------------------------------------------

// walkStatement visits every expression of a statement, recursing into
// subquery selects — both expression subqueries (scalar, IN, EXISTS) and
// derived tables — so placeholder discovery sees the whole tree.
func walkStatement(stmt sqlparser.Statement, f func(expression.Expression)) {
	switch st := stmt.(type) {
	case *sqlparser.SelectStatement:
		walkSelect(st, f)
	case *sqlparser.InsertStatement:
		for _, row := range st.Rows {
			for _, e := range row {
				walkExpr(e, f)
			}
		}
	case *sqlparser.UpdateStatement:
		for _, sc := range st.Set {
			walkExpr(sc.Expr, f)
		}
		walkExpr(st.Where, f)
	case *sqlparser.DeleteStatement:
		walkExpr(st.Where, f)
	}
}

func walkSelect(sel *sqlparser.SelectStatement, f func(expression.Expression)) {
	if sel == nil {
		return
	}
	for _, it := range sel.Items {
		walkExpr(it.Expr, f)
	}
	for i := range sel.From {
		walkTableRef(&sel.From[i], f)
	}
	walkExpr(sel.Where, f)
	for _, e := range sel.GroupBy {
		walkExpr(e, f)
	}
	walkExpr(sel.Having, f)
	for _, o := range sel.OrderBy {
		walkExpr(o.Expr, f)
	}
}

func walkTableRef(ref *sqlparser.TableRef, f func(expression.Expression)) {
	if ref.Subquery != nil {
		walkSelect(ref.Subquery, f)
	}
	if ref.Join != nil {
		walkTableRef(&ref.Join.Left, f)
		walkTableRef(&ref.Join.Right, f)
		walkExpr(ref.Join.On, f)
	}
}

func walkExpr(e expression.Expression, f func(expression.Expression)) {
	if e == nil {
		return
	}
	expression.VisitAll(e, func(x expression.Expression) {
		f(x)
		if sq, ok := x.(*expression.Subquery); ok {
			if sel, ok := sq.Plan.(*sqlparser.SelectStatement); ok {
				walkSelect(sel, f)
			}
		}
	})
}

// countParams returns the number of placeholder slots (highest ID + 1, so
// $1/$3 without $2 still reserves three slots, matching Postgres).
func countParams(stmt sqlparser.Statement) int {
	n := 0
	walkStatement(stmt, func(e expression.Expression) {
		if p, ok := e.(*expression.Parameter); ok && p.ID+1 > n {
			n = p.ID + 1
		}
	})
	return n
}

// statementHasSubquery reports whether any expression subquery occurs.
func statementHasSubquery(stmt sqlparser.Statement) bool {
	found := false
	walkStatement(stmt, func(e expression.Expression) {
		if _, ok := e.(*expression.Subquery); ok {
			found = true
		}
	})
	return found
}

// --- parameter-type inference ----------------------------------------------

// boundStmtTable is one base table visible to a statement, under its alias.
type boundStmtTable struct {
	alias string // lower-cased alias (or table name)
	table *storage.Table
}

// gatherTables resolves every base table a statement references. Views and
// meta-tables are skipped — inference is best-effort and must not
// materialize telemetry snapshots during Parse.
func (e *Engine) gatherTables(stmt sqlparser.Statement) []boundStmtTable {
	var out []boundStmtTable
	add := func(name, alias string) {
		if !e.sm.HasTable(name) {
			return
		}
		t, err := e.sm.GetTable(name)
		if err != nil {
			return
		}
		key := strings.ToLower(alias)
		if key == "" {
			key = strings.ToLower(name)
		}
		out = append(out, boundStmtTable{alias: key, table: t})
	}
	var addRef func(ref *sqlparser.TableRef)
	var addSelect func(sel *sqlparser.SelectStatement)
	addRef = func(ref *sqlparser.TableRef) {
		switch {
		case ref.Join != nil:
			addRef(&ref.Join.Left)
			addRef(&ref.Join.Right)
		case ref.Subquery != nil:
			addSelect(ref.Subquery)
		case ref.Name != "":
			add(ref.Name, ref.Alias)
		}
	}
	addSelect = func(sel *sqlparser.SelectStatement) {
		if sel == nil {
			return
		}
		for i := range sel.From {
			addRef(&sel.From[i])
		}
	}
	switch st := stmt.(type) {
	case *sqlparser.SelectStatement:
		addSelect(st)
	case *sqlparser.InsertStatement:
		add(st.Table, "")
	case *sqlparser.UpdateStatement:
		add(st.Table, "")
	case *sqlparser.DeleteStatement:
		add(st.Table, "")
	}
	// Subquery selects contribute their tables too (their columns are in
	// scope for the expressions we inspect).
	walkStatement(stmt, func(e expression.Expression) {
		if sq, ok := e.(*expression.Subquery); ok {
			if sel, ok := sq.Plan.(*sqlparser.SelectStatement); ok {
				addSelect(sel)
			}
		}
	})
	return out
}

// columnTypeIn resolves a possibly qualified column name against the
// statement's tables (first match wins; TypeNull when unresolved).
func columnTypeIn(tables []boundStmtTable, qualifier, name string) types.DataType {
	for _, bt := range tables {
		if qualifier != "" && !strings.EqualFold(qualifier, bt.alias) {
			continue
		}
		for _, d := range bt.table.ColumnDefinitions() {
			if strings.EqualFold(d.Name, name) {
				return d.Type
			}
		}
	}
	return types.TypeNull
}

// inferParamTypes derives a target type per placeholder slot from the AST
// and the catalog: INSERT row positions and UPDATE SET targets take the
// column's declared type; a parameter compared (=, <, BETWEEN, IN, ...) to a
// column or literal takes that operand's type. Unresolvable slots stay
// TypeNull. The wire server uses these both to report ParameterDescription
// and to parse bound text values — crucially, a parameter probing a string
// column keeps '123' as a string instead of coercing it to an integer.
func (e *Engine) inferParamTypes(stmt sqlparser.Statement, n int) []types.DataType {
	out := make([]types.DataType, n)
	if n == 0 {
		return out
	}
	tables := e.gatherTables(stmt)
	assign := func(id int, dt types.DataType) {
		if id >= 0 && id < n && out[id] == types.TypeNull && dt != types.TypeNull {
			out[id] = dt
		}
	}
	paramID := func(ex expression.Expression) (int, bool) {
		p, ok := ex.(*expression.Parameter)
		if !ok {
			return 0, false
		}
		return p.ID, true
	}
	typeOf := func(ex expression.Expression) types.DataType {
		switch x := ex.(type) {
		case *expression.ColumnRef:
			return columnTypeIn(tables, x.Qualifier, x.Name)
		case *expression.Literal:
			return x.Value.Type
		}
		return types.TypeNull
	}

	switch st := stmt.(type) {
	case *sqlparser.InsertStatement:
		if e.sm.HasTable(st.Table) {
			if t, err := e.sm.GetTable(st.Table); err == nil {
				defs := t.ColumnDefinitions()
				for _, row := range st.Rows {
					for i, ex := range row {
						id, ok := paramID(ex)
						if !ok {
							continue
						}
						var dt types.DataType
						if len(st.Columns) == 0 {
							if i < len(defs) {
								dt = defs[i].Type
							}
						} else if i < len(st.Columns) {
							for _, d := range defs {
								if strings.EqualFold(d.Name, st.Columns[i]) {
									dt = d.Type
									break
								}
							}
						}
						assign(id, dt)
					}
				}
			}
		}
	case *sqlparser.UpdateStatement:
		if e.sm.HasTable(st.Table) {
			if t, err := e.sm.GetTable(st.Table); err == nil {
				for _, sc := range st.Set {
					if id, ok := paramID(sc.Expr); ok {
						for _, d := range t.ColumnDefinitions() {
							if strings.EqualFold(d.Name, sc.Column) {
								assign(id, d.Type)
								break
							}
						}
					}
				}
			}
		}
	}

	walkStatement(stmt, func(ex expression.Expression) {
		switch x := ex.(type) {
		case *expression.Comparison:
			if id, ok := paramID(x.Left); ok {
				assign(id, typeOf(x.Right))
			}
			if id, ok := paramID(x.Right); ok {
				assign(id, typeOf(x.Left))
			}
		case *expression.Between:
			dt := typeOf(x.Child)
			if id, ok := paramID(x.Lo); ok {
				assign(id, dt)
			}
			if id, ok := paramID(x.Hi); ok {
				assign(id, dt)
			}
			if id, ok := paramID(x.Child); ok {
				if d := typeOf(x.Lo); d != types.TypeNull {
					assign(id, d)
				} else {
					assign(id, typeOf(x.Hi))
				}
			}
		case *expression.In:
			dt := typeOf(x.Child)
			for _, le := range x.List {
				if id, ok := paramID(le); ok {
					assign(id, dt)
				}
			}
		}
	})
	return out
}

// --- executor pool meta table ----------------------------------------------

// PoolRow is one row of the meta_executor_pool table: a per-queue snapshot
// of the wire server's bounded executor pool.
type PoolRow struct {
	Queue     string // "read" | "write" | "slow"
	Workers   int64
	Depth     int64 // statements waiting in the queue now
	Capacity  int64
	Submitted int64
	Executed  int64
	Rejected  int64
	WaitNS    int64 // cumulative queue-wait nanoseconds
}

// StatementMeanNS reports the mean recorded latency of a statement
// fingerprint, 0 when unseen. The server's executor pool uses it to route
// historically slow statements to a dedicated queue.
func (e *Engine) StatementMeanNS(fingerprint string) int64 {
	return e.stmtStats.MeanNS(fingerprint)
}

// SetPoolRows installs the provider behind meta_executor_pool; nil
// uninstalls it (the table is then empty — no pool is serving).
func (e *Engine) SetPoolRows(fn func() []PoolRow) {
	if fn == nil {
		e.poolRows.Store(nil)
		return
	}
	e.poolRows.Store(&fn)
}

// buildMetaExecutorPool snapshots the wire server's executor pool:
// `SELECT * FROM meta_executor_pool`.
func (e *Engine) buildMetaExecutorPool() (*storage.Table, error) {
	defs := []storage.ColumnDefinition{
		{Name: "queue", Type: types.TypeString},
		{Name: "workers", Type: types.TypeInt64},
		{Name: "depth", Type: types.TypeInt64},
		{Name: "capacity", Type: types.TypeInt64},
		{Name: "submitted", Type: types.TypeInt64},
		{Name: "executed", Type: types.TypeInt64},
		{Name: "rejected", Type: types.TypeInt64},
		{Name: "wait_ns", Type: types.TypeInt64},
	}
	out := storage.NewTable("meta_executor_pool", defs, 0, false)
	if fn := e.poolRows.Load(); fn != nil {
		for _, r := range (*fn)() {
			if _, err := out.AppendRow([]types.Value{
				types.Str(r.Queue),
				types.Int(r.Workers),
				types.Int(r.Depth),
				types.Int(r.Capacity),
				types.Int(r.Submitted),
				types.Int(r.Executed),
				types.Int(r.Rejected),
				types.Int(r.WaitNS),
			}); err != nil {
				return nil, err
			}
		}
	}
	out.FinalizeLastChunk()
	return out, nil
}
