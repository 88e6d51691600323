package core

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/synopsis"
)

// TestSynopsisMemoScopedInvalidation: the hit/miss counters follow the flag
// the store returns, a write of a deal the query neither lists nor matches
// leaves its entry in place, and a write of one it matches removes it.
func TestSynopsisMemoScopedInvalidation(t *testing.T) {
	e := newEngine(t)
	reg := obs.NewRegistry()
	e.Metrics = reg
	hits := reg.Counter("synopsis_cache_hits_total")
	misses := reg.Counter("synopsis_cache_misses_total")
	expect := func(when string, wantHits, wantMisses int64) {
		t.Helper()
		if hits.Value() != wantHits || misses.Value() != wantMisses {
			t.Fatalf("%s: hits=%d misses=%d, want %d and %d", when, hits.Value(), misses.Value(), wantHits, wantMisses)
		}
	}

	q := FormQuery{Tower: "Storage Management Services"}
	first, err := e.Search(anyUser(), q)
	if err != nil {
		t.Fatal(err)
	}
	expect("first search", 0, 1)
	second, err := e.Search(anyUser(), q)
	if err != nil {
		t.Fatal(err)
	}
	expect("repeat search", 1, 1)
	if !reflect.DeepEqual(first.Activities, second.Activities) {
		t.Fatal("memoized search diverges from computed one")
	}

	if err := e.Backends[0].Synopses.Put(synopsis.Deal{Overview: synopsis.Overview{DealID: "DEAL NEW"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(anyUser(), q); err != nil {
		t.Fatal(err)
	}
	expect("after an unrelated write", 2, 1)

	if err := e.Backends[0].Synopses.Put(synopsis.Deal{
		Overview: synopsis.Overview{DealID: "DEAL NEW"},
		Towers:   []synopsis.TowerScope{{Tower: "Storage Management Services", Significance: 0.4}},
	}); err != nil {
		t.Fatal(err)
	}
	third, err := e.Search(anyUser(), q)
	if err != nil {
		t.Fatal(err)
	}
	expect("after a write the query matches", 2, 2)
	if got := dealIDs(third); !reflect.DeepEqual(got, []string{"DEAL A", "DEAL NEW"}) {
		t.Fatalf("activities after the write = %v", got)
	}
}
