package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Every operator that hashes values (join, GROUP BY, COUNT DISTINCT, IN
// sets) must agree on when two values are the same key: 0.0 ≡ -0.0,
// NaN ≡ NaN, and a predicate result ≡ its stored 0/1 form. These
// regressions run each query with the optimizer on and off, fanned out over
// a multi-worker scheduler, and on the row engine.

// valueKeyEngines builds a catalog with one single-column table per entry
// of tables and returns a query function per engine under test.
func valueKeyEngines(t *testing.T, tables map[string][]types.Value) map[string]func(sql string) ([][]types.Value, error) {
	t.Helper()
	sm := storage.NewStorageManager()
	for name, vals := range tables {
		dt := vals[0].Type
		tbl := storage.NewTable(name, []storage.ColumnDefinition{{Name: "x", Type: dt}}, 2, false)
		for _, v := range vals {
			if _, err := tbl.AppendRow([]types.Value{v}); err != nil {
				t.Fatal(err)
			}
		}
		tbl.FinalizeLastChunk()
		if err := sm.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	engines := make(map[string]func(string) ([][]types.Value, error))
	for _, mode := range []struct{ opt, parallel bool }{{true, false}, {false, false}, {true, true}} {
		cfg := DefaultConfig()
		cfg.UseMvcc = false
		cfg.UseOptimizer = mode.opt
		if mode.parallel {
			// Fan every operator out: radix join partitions and aggregate
			// merge shards select by key hash.
			cfg.UseScheduler = true
			cfg.SchedulerWorkers = 4
			cfg.ForceParallel = true
		}
		e := NewEngine(cfg, sm)
		t.Cleanup(e.Close)
		s := e.NewSession()
		engines[fmt.Sprintf("optimizer=%v,parallel=%v", mode.opt, mode.parallel)] = func(sql string) ([][]types.Value, error) {
			res, err := s.ExecuteOne(sql)
			if err != nil {
				return nil, err
			}
			return ValueRows(res.Table), nil
		}
	}
	re := rowengine.NewFromStorage(sm)
	engines["rowengine"] = func(sql string) ([][]types.Value, error) {
		rows, _, err := re.Query(sql)
		return rows, err
	}
	return engines
}

// checkValueKeyQueries runs each query on every engine and compares the
// rendered, sorted rows with the expectation.
func checkValueKeyQueries(t *testing.T, engines map[string]func(string) ([][]types.Value, error), want map[string][]string) {
	t.Helper()
	for name, query := range engines {
		for sql, exp := range want {
			rows, err := query(sql)
			if err != nil {
				t.Fatalf("%s: %q: %v", name, sql, err)
			}
			if got := canonical(rows); !reflect.DeepEqual(got, exp) {
				t.Errorf("%s: %q = %v, want %v", name, sql, got, exp)
			}
		}
	}
}

func TestGroupBySignedZero(t *testing.T) {
	engines := valueKeyEngines(t, map[string][]types.Value{
		"f": {types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(5)},
	})
	checkValueKeyQueries(t, engines, map[string][]string{
		"SELECT x, count(*) FROM f GROUP BY x":                {"0|2", "5|1"},
		"SELECT count(*) FROM (SELECT x FROM f GROUP BY x) g": {"2"},
		"SELECT count(DISTINCT x) FROM f":                     {"2"},
		"SELECT count(*) FROM f a JOIN f b ON a.x = b.x":      {"5"},
	})
}

func TestGroupByNaN(t *testing.T) {
	nan := math.NaN()
	engines := valueKeyEngines(t, map[string][]types.Value{
		"n": {types.Float(nan), types.Float(1), types.Float(-nan)},
	})
	checkValueKeyQueries(t, engines, map[string][]string{
		"SELECT x, count(*) FROM n GROUP BY x":                {"1|1", "NaN|2"},
		"SELECT count(DISTINCT x) FROM n":                     {"2"},
		"SELECT count(*) FROM (SELECT x FROM n GROUP BY x) g": {"2"},
	})
}

func TestBooleanInSubquery(t *testing.T) {
	engines := valueKeyEngines(t, map[string][]types.Value{
		"f": {types.Int(1), types.Int(2)},
	})
	checkValueKeyQueries(t, engines, map[string][]string{
		"SELECT x FROM f WHERE (x > 1) IN (SELECT x > 1 FROM f)":                 {"1", "2"},
		"SELECT x FROM f WHERE (x > 1) NOT IN (SELECT x > 1 FROM f WHERE x < 2)": {"2"},
	})
}

// TestSubqueryMemoKeepsSignedZero: a correlated subquery may return its
// parameter, so the memo must not let 0.0 and -0.0 share an entry.
func TestSubqueryMemoKeepsSignedZero(t *testing.T) {
	engines := valueKeyEngines(t, map[string][]types.Value{
		"f":   {types.Float(0), types.Float(math.Copysign(0, -1))},
		"one": {types.Int(1)},
	})
	checkValueKeyQueries(t, engines, map[string][]string{
		"SELECT (SELECT f.x FROM one) FROM f": {"-0", "0"},
	})
}
