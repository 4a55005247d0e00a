package statistics

import (
	"sync"
	"testing"

	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

func appendRows(t *testing.T, table *storage.Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := table.AppendRow([]types.Value{types.Int(int64(10_000 + i)), types.Float(1), types.Str("open")}); err != nil {
			t.Fatal(err)
		}
	}
}

func emptyTestTable() *storage.Table {
	return storage.NewTable("t", []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "price", Type: types.TypeFloat64, Nullable: true},
		{Name: "status", Type: types.TypeString},
	}, 100, false)
}

// TestStatisticsCache pins the refresh contract: an entry serves until the
// row count drifts by refreshFraction, and is then rebuilt at the live count.
func TestStatisticsCache(t *testing.T) {
	t.Run("same pointer below drift", func(t *testing.T) {
		table := buildTestTable(t) // 1000 rows: drift threshold 100
		cache := NewCache(EqualHeight)
		s1 := cache.Get(table)
		if s2 := cache.Get(table); s2 != s1 {
			t.Error("unchanged table must return the cached entry")
		}
		appendRows(t, table, 99)
		if s3 := cache.Get(table); s3 != s1 {
			t.Error("99 appended rows on 1000 are below drift; entry must be kept")
		}
		if p := cache.Peek(table); p != s1 {
			t.Error("Peek must return the cached entry")
		}
	})
	t.Run("rebuilt at drift with live row count", func(t *testing.T) {
		table := buildTestTable(t)
		cache := NewCache(EqualHeight)
		s1 := cache.Get(table)
		appendRows(t, table, 100)
		s2 := cache.Get(table)
		if s2 == s1 {
			t.Fatal("100 appended rows on 1000 reach drift; entry must be rebuilt")
		}
		if s2.RowCount != 1100 {
			t.Errorf("rebuilt RowCount = %v, want 1100", s2.RowCount)
		}
		if cache.Peek(table) != s2 {
			t.Error("Peek must return the rebuilt entry")
		}
	})
	t.Run("empty table refreshes on first insert", func(t *testing.T) {
		table := emptyTestTable()
		cache := NewCache(EqualHeight)
		s1 := cache.Get(table)
		if s1.RowCount != 0 {
			t.Fatalf("empty RowCount = %v", s1.RowCount)
		}
		appendRows(t, table, 1)
		s2 := cache.Get(table)
		if s2 == s1 || s2.RowCount != 1 {
			t.Errorf("first insert into an empty table must refresh: RowCount = %v", s2.RowCount)
		}
	})
	t.Run("evict", func(t *testing.T) {
		table := buildTestTable(t)
		cache := NewCache(EqualHeight)
		if cache.Peek(table) != nil {
			t.Error("Peek before any Get must be nil")
		}
		cache.Get(table)
		cache.Evict(table)
		if cache.Peek(table) != nil {
			t.Error("Peek after Evict must be nil")
		}
	})
}

// TestStatisticsRefreshAmortized grows a table row by row with a Get after
// each row: the builds must be geometric, not one per row.
func TestStatisticsRefreshAmortized(t *testing.T) {
	table := buildTestTable(t)
	cache := NewCache(EqualHeight)
	reg := observe.NewRegistry()
	cache.Instrument(reg)
	for table.RowCount() < 2000 {
		appendRows(t, table, 1)
		cache.Get(table)
	}
	builds, _ := reg.Get("statistics.builds")
	if builds > 8 {
		t.Errorf("growing 1000 -> 2000 rows built statistics %d times, want <= 8", builds)
	}
	if got := cache.Peek(table).RowCount; got < 1800 {
		t.Errorf("entry built at %v rows, want within drift of 2000", got)
	}
}

func TestStatisticsBuildMetrics(t *testing.T) {
	table := buildTestTable(t)
	cache := NewCache(EqualHeight)
	reg := observe.NewRegistry()
	cache.Instrument(reg)
	builds := func() int64 { v, _ := reg.Get("statistics.builds"); return v }

	cache.Get(table)
	if builds() != 1 {
		t.Fatalf("first build: builds = %d, want 1", builds())
	}
	appendRows(t, table, 10)
	cache.Get(table)
	if builds() != 1 {
		t.Fatalf("sub-drift insert: builds = %d, want 1", builds())
	}
	appendRows(t, table, 90)
	cache.Get(table)
	if builds() != 2 {
		t.Fatalf("drift refresh: builds = %d, want 2", builds())
	}
	if n := reg.Histogram("statistics.build_ns").Count(); n != 2 {
		t.Errorf("statistics.build_ns observations = %d, want 2", n)
	}
}

// TestStatisticsCacheConcurrent runs Get and Peek against a table another
// goroutine appends to; run with -race.
func TestStatisticsCacheConcurrent(t *testing.T) {
	table := buildTestTable(t)
	cache := NewCache(EqualHeight)
	cache.Instrument(observe.NewRegistry())
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if s := cache.Get(table); s == nil || s.RowCount < 1000 {
					t.Error("Get returned no or shrunken statistics")
					return
				}
				if s := cache.Peek(table); s == nil {
					t.Error("Peek after Get returned nil")
					return
				}
			}
		}()
	}
	appendRows(t, table, 2000)
	close(done)
	wg.Wait()
	if s := cache.Get(table); s.RowCount < 2700 {
		t.Errorf("final entry built at %v rows, want within drift of 3000", s.RowCount)
	}
}
