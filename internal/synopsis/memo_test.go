package synopsis

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fault"
)

// The memo differential test: a seeded world of deals and a seeded history of
// Put / re-Put with changed towers, industry and contacts / Delete / Search /
// Get over queries drawn from the deals' own values. After every write
//
//   - every live Search-memo entry equals an uncached Search of its query and
//     every live Get-memo entry an uncached Get,
//   - q.Matches(d) == (d is listed by an uncached Search(q)) for every query
//     issued so far and every stored deal,
//   - the write removed exactly the entries it had to: the ones that listed
//     the deal before, plus (a Put) the ones that list it now.
//
// The history's choices come from a chooser, so the same code runs from a
// seed (TestMemoDifferential) and from fuzz bytes (FuzzMemoDifferential).

type chooser interface {
	// Intn returns a choice in [0, n); more reports whether the history
	// should go on.
	Intn(n int) int
	more() bool
}

type seeded struct {
	*rand.Rand
	steps int
}

func (s *seeded) more() bool { s.steps--; return s.steps >= 0 }

type fuzzBytes struct{ data []byte }

func (f *fuzzBytes) Intn(n int) int {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return int(b) % n
}

func (f *fuzzBytes) more() bool { return len(f.data) > 0 }

var (
	memoIDs     = []string{"D0", "D1", "D2", "D3", "D4", "D5", "D6", "D7"}
	memoTowers  = []string{"Storage", "EUS", "Network", ""}
	memoSubs    = []string{"", "Backup", "Helpdesk", "LAN"}
	memoInds    = []string{"", "Banking", "banking", "Retail"}
	memoCons    = []string{"", "TPI", "Gartner"}
	memoGeos    = []string{"", "EMEA", "Americas"}
	memoCtry    = []string{"", "UK", "US"}
	memoNames   = []string{"Ann Lee", "ann_lee", "Bob 100%", "Ünï Code", ""}
	memoOrgs    = []string{"IBM", "Acme_Co", "", "ibm uk"}
	memoPersons = []string{"ann", "_", "%", "n_l", "100%", "ü", "N L", "b%1"}
	memoOrgPats = []string{"ibm", "me_c", "%", "_", "UK"}
)

func pick(c chooser, vals []string) string { return vals[c.Intn(len(vals))] }

// maybe leaves a criterion unset two times in three.
func maybe(c chooser, vals []string) string {
	if c.Intn(3) != 0 {
		return ""
	}
	return pick(c, vals)
}

func memoDeal(c chooser, id string) Deal {
	d := Deal{Overview: Overview{
		DealID: id, Customer: "c", Industry: pick(c, memoInds), Consultant: pick(c, memoCons),
		Geography: pick(c, memoGeos), Country: pick(c, memoCtry),
	}}
	for i := c.Intn(4); i > 0; i-- {
		d.Towers = append(d.Towers, TowerScope{
			Tower: pick(c, memoTowers), SubTower: pick(c, memoSubs), Significance: float64(1+c.Intn(4)) / 4,
		})
	}
	for i := c.Intn(3); i > 0; i-- {
		d.People = append(d.People, Contact{Name: pick(c, memoNames), Org: pick(c, memoOrgs), Validated: c.Intn(2) == 0})
	}
	return d
}

func memoQuery(c chooser) Query {
	q := Query{
		Tower: maybe(c, memoTowers), SubTower: maybe(c, memoSubs),
		Industry: maybe(c, memoInds), Consultant: maybe(c, memoCons),
		Geography: maybe(c, memoGeos), Country: maybe(c, memoCtry),
		PersonName: maybe(c, memoPersons), PersonOrg: maybe(c, memoOrgPats),
	}
	if c.Intn(4) == 0 {
		for i := 1 + c.Intn(3); i > 0; i-- {
			q.RestrictTo = append(q.RestrictTo, pick(c, append(memoIDs, "D?")))
		}
	}
	return q
}

// liveEntries lists the Search memo without disturbing it.
func liveEntries(s *Store) map[string]memoEntry {
	out := map[string]memoEntry{}
	s.searchMemo.RemoveFunc(func(k string, e memoEntry) bool { out[k] = e; return false })
	return out
}

func lists(hits []Hit, id string) bool {
	for _, h := range hits {
		if h.DealID == id {
			return true
		}
	}
	return false
}

func runMemoHistory(t *testing.T, c chooser) {
	t.Helper()
	s := newStore(t)
	stored := map[string]Deal{}
	issued := map[string]Query{}

	uncached := func(q Query) []Hit {
		hits, err := s.searchUncached(q)
		if err != nil {
			t.Fatal(err)
		}
		return hits
	}
	// afterWrite checks the three properties; before is the Search memo as
	// the write found it, id the deal written.
	afterWrite := func(op, id string, before map[string]memoEntry) {
		after := liveEntries(s)
		for k, e := range before {
			now := uncached(e.q)
			wantDropped := lists(e.hits, id) || lists(now, id)
			if _, kept := after[k]; kept == wantDropped {
				t.Fatalf("%s %s: entry %+v kept=%v, want kept=%v (listed before %v, lists now %v)",
					op, id, e.q, kept, !wantDropped, lists(e.hits, id), lists(now, id))
			}
		}
		for _, e := range after {
			if now := uncached(e.q); !reflect.DeepEqual(e.hits, now) {
				t.Fatalf("%s %s: memo entry for %+v is stale:\n memo %+v\n  now %+v", op, id, e.q, e.hits, now)
			}
		}
		for _, q := range issued {
			now := uncached(q)
			for did, d := range stored {
				if got, want := q.Matches(d), lists(now, did); got != want {
					t.Fatalf("%s %s: %+v .Matches(%+v) = %v, Search lists it: %v", op, id, q, d, got, want)
				}
			}
		}
		for did := range stored {
			memo, ok := s.getMemo.Get(did)
			if !ok {
				continue
			}
			if now, err := s.getUncached(did); err != nil || !reflect.DeepEqual(memo, now) {
				t.Fatalf("%s %s: Get memo for %s is stale (%v):\n memo %+v\n  now %+v", op, id, did, err, memo, now)
			}
		}
		if _, ok := s.getMemo.Get(id); ok {
			t.Fatalf("%s %s: Get memo kept the written deal", op, id)
		}
	}

	for c.more() {
		switch op := c.Intn(8); {
		case op < 2: // Put or re-Put
			d := memoDeal(c, pick(c, memoIDs))
			before := liveEntries(s)
			if err := s.Put(d); err != nil {
				t.Fatal(err)
			}
			stored[d.Overview.DealID] = d
			afterWrite("Put", d.Overview.DealID, before)
		case op == 2:
			id := pick(c, memoIDs)
			before := liveEntries(s)
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(stored, id)
			afterWrite("Delete", id, before)
		case op == 3:
			id := pick(c, memoIDs)
			got, err := s.Get(id)
			if _, ok := stored[id]; !ok {
				if err == nil {
					t.Fatalf("Get(%s) of a deleted deal: %+v", id, got)
				}
				continue
			}
			if want, werr := s.getUncached(id); err != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("Get(%s) = %+v, %v; uncached %+v, %v", id, got, err, want, werr)
			}
		default:
			q := memoQuery(c)
			issued[q.key()] = q
			got, err := s.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := uncached(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("Search(%+v) = %+v, uncached %+v", q, got, want)
			}
		}
	}
}

func TestMemoDifferential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			runMemoHistory(t, &seeded{rand.New(rand.NewSource(seed)), 300})
		})
	}
}

func FuzzMemoDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 5, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		runMemoHistory(t, &fuzzBytes{data})
	})
}

// TestKeyInjective: queries that differ only in where a value sits, or in how
// RestrictTo splits, must not share a memo entry.
func TestKeyInjective(t *testing.T) {
	qs := []Query{
		{Tower: "a"}, {SubTower: "a"}, {Industry: "a"}, {PersonName: "a"}, {PersonOrg: "a"},
		{Tower: "a", RestrictTo: []string{"b", "c"}}, {Tower: "a", RestrictTo: []string{"b:1:c"}},
		{Tower: "a", RestrictTo: []string{"bc"}}, {Tower: "a", RestrictTo: []string{"c", "b"}},
		{Tower: "1:a"}, {Tower: "", SubTower: "1:a"},
	}
	seen := map[string]int{}
	for i, q := range qs {
		if j, dup := seen[q.key()]; dup {
			t.Fatalf("queries %d and %d share key %q", j, i, q.key())
		}
		seen[q.key()] = i
	}
}

// TestGetOverlappingPutIsNotMemoized is the regression test for the stale Get:
// a Put of the same deal lands between Get's first and second statement. The
// overlapping Get may return a torn synopsis (there is no transaction), but it
// must not memoize it.
func TestGetOverlappingPutIsNotMemoized(t *testing.T) {
	s := newStore(t)
	old := sampleDeal("DEAL A")
	if err := s.Put(old); err != nil {
		t.Fatal(err)
	}
	fresh := sampleDeal("DEAL A")
	fresh.Overview.Industry = "Retail"
	fresh.Towers = []TowerScope{{Tower: "Network Services", Significance: 0.7}}
	s.midGet = func() {
		s.midGet = nil
		if err := s.Put(fresh); err != nil {
			t.Error(err)
		}
	}
	if _, err := s.Get("DEAL A"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("DEAL A")
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.getUncached("DEAL A")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.Overview.Industry != "Retail" || len(got.Towers) != 1 {
		t.Fatalf("Get after an overlapping Put served a stale synopsis:\n got %+v\nwant %+v", got, want)
	}
}

// TestMemosUnderConcurrentWrites races readers of both memos against writers
// that flip two deals between two shapes; once the writers stop, every memo
// entry must equal its uncached answer. Run under -race.
func TestMemosUnderConcurrentWrites(t *testing.T) {
	s := newStore(t)
	shape := func(id string, i int) Deal {
		d := sampleDeal(id)
		if i%2 == 1 {
			d.Overview.Industry = "Retail"
			d.Towers = d.Towers[:1]
			d.People = nil
		}
		return d
	}
	ids := []string{"DEAL A", "DEAL B"}
	queries := []Query{
		{Industry: "Retail"}, {Industry: sampleDeal("x").Overview.Industry},
		{Tower: sampleDeal("x").Towers[0].Tower}, {PersonName: "a"},
	}
	for _, id := range ids {
		if err := s.Put(shape(id, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w, id := range ids {
		writers.Add(1)
		go func(w int, id string) {
			defer writers.Done()
			for i := 1; i <= 150; i++ {
				if err := s.Put(shape(id, i+w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w, id)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// A Get between a Put's DELETEs and INSERTs finds no deal.
				if _, err := s.Get(ids[i%len(ids)]); err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
					return
				}
				if _, err := s.Search(queries[i%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	// One more read of everything, so the memos are full when they are
	// checked; readers may still be inserting while it runs.
	for _, id := range ids {
		if _, err := s.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	for _, id := range ids {
		got, _ := s.Get(id)
		if want, err := s.getUncached(id); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%s) after the writers stopped:\n got %+v\nwant %+v (%v)", id, got, want, err)
		}
	}
	for _, q := range queries {
		got, _ := s.Search(q)
		if want, err := s.searchUncached(q); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Search(%+v) after the writers stopped:\n got %+v\nwant %+v (%v)", q, got, want, err)
		}
	}
}

// TestPartialHarvestIsNotMemoized: a partial-harvest rule truncates the
// answers it fires on; once it is gone the same query is whole again, served
// from the full entry the faulted read left in the memo.
func TestPartialHarvestIsNotMemoized(t *testing.T) {
	s := multiStore(t)
	q := Query{Tower: "End User Services"}
	full, err := s.searchUncached(q)
	if err != nil || len(full) < 2 {
		t.Fatalf("fixture: %d hits, %v", len(full), err)
	}
	inj := fault.New(1)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModePartial, Fraction: 0.5})
	ctx := fault.With(context.Background(), inj)

	short, cached, err := s.SearchCached(ctx, q)
	if err != nil || cached || len(short) >= len(full) {
		t.Fatalf("faulted read: %d of %d hits, cached=%v, %v", len(short), len(full), cached, err)
	}
	inj.Reset() // the fault is gone
	again, cached, err := s.SearchCached(ctx, q)
	if err != nil || !cached || !reflect.DeepEqual(again, full) {
		t.Fatalf("read after the fault: cached=%v, %v\n got %+v\nwant %+v", cached, err, again, full)
	}
}

// TestMemoDroppedCountsDrops: a write counts the entries it removed, and
// removes only those.
func TestMemoDroppedCountsDrops(t *testing.T) {
	s := multiStore(t)
	ids := []string{"DEAL A", "DEAL B", "DEAL C"}
	readAll := func() {
		t.Helper()
		for _, id := range ids {
			if _, err := s.Get(id); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []Query{{Tower: "End User Services"}, {Tower: "Network Services"}, {Industry: "Mining"}} {
			if _, err := s.Search(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll()
	getMisses := 0 // midGet runs once per Get that reaches its statements
	s.midGet = func() { getMisses++ }
	steps := []struct {
		name    string
		write   func() error
		dropped uint64 // entries of either memo
		queries int    // Search entries left
	}{
		{"Put of a deal no query lists or matches", func() error {
			return s.Put(Deal{Overview: Overview{DealID: "DEAL NEW", Industry: "Steel"}})
		}, 0, 3},
		{"Put of a deal the Mining query now matches", func() error {
			return s.Put(Deal{Overview: Overview{DealID: "DEAL NEW", Industry: "Mining"}})
		}, 1, 2},
		{"Delete of DEAL B: its Get entry and the Network query", func() error { return s.Delete("DEAL B") }, 2, 2},
	}
	ids = []string{"DEAL A", "DEAL C"}
	for _, st := range steps {
		before := s.MemoDropped()
		if err := st.write(); err != nil {
			t.Fatal(err)
		}
		if got := s.MemoDropped() - before; got != st.dropped {
			t.Fatalf("%s: dropped %d, want %d", st.name, got, st.dropped)
		}
		if len(liveEntries(s)) != st.queries {
			t.Fatalf("%s: %d Search entries live", st.name, len(liveEntries(s)))
		}
		readAll()
	}
	if getMisses != 0 {
		t.Fatalf("%d Gets of unwritten deals ran their statements", getMisses)
	}
}
