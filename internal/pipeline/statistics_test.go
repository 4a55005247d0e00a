package pipeline

import (
	"fmt"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TestDropTableReleasesStatistics checks that a dropped table leaves the
// statistics cache once the optimizer has built statistics for it.
func TestDropTableReleasesStatistics(t *testing.T) {
	e := NewEngine(DefaultConfig(), nil)
	t.Cleanup(e.Close)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE d (a INT NOT NULL, b INT NOT NULL)")
	mustExec(t, s, "INSERT INTO d VALUES (1, 10), (2, 20), (3, 30)")
	old, err := e.StorageManager().GetTable("d")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(t, s, "SELECT b FROM d WHERE a = 2 AND b > 5"); len(got) != 1 || got[0][0] != "20" {
		t.Fatalf("SELECT = %v", got)
	}
	if e.Statistics().Peek(old) == nil {
		t.Fatal("the query did not build statistics for d")
	}
	mustExec(t, s, "DROP TABLE d")
	if e.Statistics().Peek(old) != nil {
		t.Error("DROP TABLE left the dropped table in the statistics cache")
	}
}

// TestSingleRowInsertsDoNotRebuildStatistics is the OLTP pattern that used
// to rebuild every histogram of a table per statement: single-row inserts,
// each followed by a point query whose literal misses the plan cache.
func TestSingleRowInsertsDoNotRebuildStatistics(t *testing.T) {
	const base, inserts = 10_000, 500
	sm := storage.NewStorageManager()
	tbl := storage.NewTable("kv", []storage.ColumnDefinition{
		{Name: "k", Type: types.TypeInt64},
		{Name: "v", Type: types.TypeInt64},
		{Name: "s", Type: types.TypeString},
	}, 0, true)
	for i := 0; i < base; i++ {
		if _, err := tbl.AppendRow([]types.Value{types.Int(int64(i)), types.Int(int64(2 * i)), types.Str(fmt.Sprint("s", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sm.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(DefaultConfig(), sm)
	t.Cleanup(e.Close)
	s := e.NewSession()
	builds := func() int64 { v, _ := e.Metrics().Get("statistics.builds"); return v }

	before := builds()
	for i := base; i < base+inserts; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, 's%d')", i, 2*i, i))
		got := rows(t, s, fmt.Sprintf("SELECT v FROM kv WHERE k = %d AND v >= 0", i))
		if want := fmt.Sprint(2 * i); len(got) != 1 || got[0][0] != want {
			t.Fatalf("k = %d: got %v, want [[%s]]", i, got, want)
		}
	}
	if n := builds() - before; n > 1 {
		t.Errorf("%d single-row inserts into a %d-row table built statistics %d times, want <= 1", inserts, base, n)
	}
}
