package eil

// Recovery builds the synopsis database once: the journal tail replays into
// the index and the analysis state, and one Builder.End after the last
// record fills the store. These tests hold a recovered system to the live
// one after a long tail, and count the synopsis writes a recovery makes.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/docmodel"
	"repro/internal/synopsis"
	"repro/internal/synth"
)

// journaled is what the recovery differential drives: a System or a
// Cluster, both of which journal every operation.
type journaled interface {
	AddDocuments([]*docmodel.Document) error
	RemoveDeal(string) error
	Compact() error
}

// heldBack splits a corpus: one in every n of each deal's documents is held
// back, to be added in the journal tail.
func heldBack(docs []*docmodel.Document, n int) (initial, held []*docmodel.Document) {
	seen := map[string]int{}
	for _, d := range docs {
		if seen[d.DealID]++; d.DealID != "" && seen[d.DealID]%n == 0 {
			held = append(held, d)
		} else {
			initial = append(initial, d)
		}
	}
	return initial, held
}

// tailHistory is the differential's journal tail. Every kind of record and
// every synopsis transition is in it: adds to existing deals in small
// batches (each re-Puts the deal, so the live rows leave the builder's
// order), a deal removed and re-added, a deal created and removed inside
// the tail, a Compact, and the applied prefix of a batch that failed with a
// PartialBatchError. storeOf names the synopsis store that owns a deal.
func tailHistory(t *testing.T, sys journaled, held []*docmodel.Document, storeOf func(dealID string) *synopsis.Store, partialID string) {
	t.Helper()
	addBatches := func(docs []*docmodel.Document) {
		for len(docs) > 0 {
			n := min(3, len(docs))
			if err := sys.AddDocuments(docs[:n]); err != nil {
				t.Fatal(err)
			}
			docs = docs[n:]
		}
	}
	// One deal's held-back documents re-create it after its removal.
	readded := held[0].DealID
	var again, rest []*docmodel.Document
	for _, d := range held {
		if d.DealID == readded {
			again = append(again, d)
		} else {
			rest = append(rest, d)
		}
	}
	half := len(rest) / 2
	addBatches(rest[:half])
	if err := sys.RemoveDeal(readded); err != nil {
		t.Fatal(err)
	}
	addBatches(again)

	if err := sys.AddDocuments(newDealDocs(t, "DEAL EPHEMERAL")); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveDeal("DEAL EPHEMERAL"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}

	// A synopsis write that fails: a unique index on the customer, which
	// every newDealDocs deal shares, refuses the second such deal's row
	// after the batch reached the index and the analysis state. The journal
	// records the applied prefix (here the whole batch); the removal after
	// it makes the live store whole again.
	if err := sys.AddDocuments(newDealDocs(t, "DEAL NOVA")); err != nil {
		t.Fatal(err)
	}
	if err := storeOf(partialID).Conn().DB().CreateIndex("deals_by_customer", "deals", []string{"customer"}, true); err != nil {
		t.Fatal(err)
	}
	err := sys.AddDocuments(newDealDocs(t, partialID))
	var pbe *PartialBatchError
	if !errors.As(err, &pbe) || pbe.Failed != partialID || len(pbe.Applied) != len(newDealDocs(t, partialID)) {
		t.Fatalf("AddDocuments(%s) = %v, want a PartialBatchError failing at it", partialID, err)
	}
	if err := sys.RemoveDeal(partialID); err != nil {
		t.Fatal(err)
	}
	addBatches(rest[half:])
}

// synopsisQueries generates a search over every value any deal of the
// stores holds.
func synopsisQueries(t *testing.T, queries map[string]synopsis.Query, stores ...*synopsis.Store) {
	t.Helper()
	add := func(q synopsis.Query) { queries[fmt.Sprintf("%+v", q)] = q }
	for _, st := range stores {
		ids, err := st.DealIDs()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			d, err := st.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			o := d.Overview
			add(synopsis.Query{Industry: o.Industry})
			add(synopsis.Query{Consultant: o.Consultant})
			add(synopsis.Query{Geography: o.Geography, Country: o.Country})
			for _, tw := range d.Towers {
				add(synopsis.Query{Tower: tw.Tower})
				add(synopsis.Query{Tower: tw.Tower, SubTower: tw.SubTower})
			}
			for _, p := range d.People {
				add(synopsis.Query{PersonName: p.Name})
				add(synopsis.Query{PersonOrg: p.Org})
			}
		}
	}
}

// sameSynopses requires the recovered store to hold the live store's deals
// and to answer every Get and every query identically.
func sameSynopses(t *testing.T, name string, live, recovered *synopsis.Store, queries map[string]synopsis.Query) (deals, withHits int) {
	t.Helper()
	wantIDs, err := live.DealIDs()
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, err := recovered.DealIDs()
	if err != nil || !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("%s: deal ids: recovered %v (%v), live %v", name, gotIDs, err, wantIDs)
	}
	for _, id := range wantIDs {
		want, errW := live.Get(id)
		got, errG := recovered.Get(id)
		if errW != nil || errG != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s: recovered %+v (%v), live %+v (%v)", name, id, got, errG, want, errW)
		}
	}
	for _, q := range queries {
		want, errW := live.Search(q)
		got, errG := recovered.Search(q)
		if errW != nil || errG != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: search %+v: recovered %+v (%v), live %+v (%v)", name, q, got, errG, want, errW)
		}
		if len(want) > 0 {
			withHits++
		}
	}
	return len(wantIDs), withHits
}

// sameKeywordReads requires identical search-box answers: every returned
// hit's path, deal, title, score and snippet, and the match count.
func sameKeywordReads(t *testing.T, live, recovered *searchFront, terms []string) {
	t.Helper()
	type hit struct {
		Path, DealID, Title, Snippet string
		Score                        float64
	}
	read := func(f *searchFront, q string) (hits []hit, n int) {
		for _, h := range f.KeywordSearch(q, 50) {
			hits = append(hits, hit{h.Path, h.DealID, h.Title, h.Snippet, h.Score})
		}
		return hits, f.KeywordCount(q)
	}
	for _, q := range terms {
		want, wantN := read(live, q)
		got, gotN := read(recovered, q)
		if gotN != wantN || !reflect.DeepEqual(got, want) {
			t.Fatalf("keyword %q: recovered %d %+v, live %d %+v", q, gotN, got, wantN, want)
		}
	}
}

var differentialKeywords = []string{
	"services", "data replication", "cross tower TSA", "Nova Corp", "Network Services",
	"\"service item\"", "storage -network", "pending",
}

// TestRecoveryDifferentialLongTail: a system recovered from a checkpoint and
// a long journal tail answers like the live system that wrote them, on a
// monolith and on a 3-shard cluster.
func TestRecoveryDifferentialLongTail(t *testing.T) {
	cfg := synth.SmallConfig()
	cfg.Deals, cfg.NoiseDocsPerDeal = 12, 20
	corpus, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial, held := heldBack(corpus.Docs, 4)
	opts := Options{Directory: corpus.Directory, MinScopeWeight: 3.5}

	t.Run("monolith", func(t *testing.T) {
		live, err := Ingest(initial, opts)
		if err != nil {
			t.Fatal(err)
		}
		queries := map[string]synopsis.Query{}
		synopsisQueries(t, queries, live.Synopses)
		dir := t.TempDir()
		if err := live.EnableWAL(dir, 1); err != nil {
			t.Fatal(err)
		}
		tailHistory(t, live, held, func(string) *synopsis.Store { return live.Synopses }, "DEAL PARTIAL")
		synopsisQueries(t, queries, live.Synopses)

		recovered, err := LoadSystem(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := recovered.Metrics.Counter("durable_wal_replay_records_total").Value(); n < 30 {
			t.Fatalf("replayed %v records; the tail is too short", n)
		}
		deals, withHits := sameSynopses(t, "monolith", live.Synopses, recovered.Synopses, queries)
		sameKeywordReads(t, &live.searchFront, &recovered.searchFront, differentialKeywords)
		if withHits < len(queries)/2 {
			t.Fatalf("only %d of %d searches returned hits; the query set is too sparse", withHits, len(queries))
		}
		t.Logf("%d records, %d deals, %d searches (%d with hits) identical after recovery",
			recovered.Metrics.Counter("durable_wal_replay_records_total").Value(), deals, len(queries), withHits)
	})

	t.Run("cluster", func(t *testing.T) {
		live, err := IngestSharded(initial, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The failing deal must share a shard with DEAL NOVA, whose
		// customer its row collides with.
		partialID := ""
		for i := 0; partialID == ""; i++ {
			if id := fmt.Sprintf("DEAL PARTIAL %d", i); live.shardFor(id) == live.shardFor("DEAL NOVA") {
				partialID = id
			}
		}
		queries := map[string]synopsis.Query{}
		for _, s := range live.Shards {
			synopsisQueries(t, queries, s.Synopses)
		}
		dir := t.TempDir()
		if err := live.EnableWAL(dir, 1); err != nil {
			t.Fatal(err)
		}
		tailHistory(t, live, held, func(id string) *synopsis.Store { return live.shardFor(id).Synopses }, partialID)
		for _, s := range live.Shards {
			synopsisQueries(t, queries, s.Synopses)
		}

		recovered, err := LoadCluster(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		deals := 0
		for i := range live.Shards {
			n, _ := sameSynopses(t, ShardName(i), live.Shards[i].Synopses, recovered.Shards[i].Synopses, queries)
			deals += n
			sameKeywordReads(t, &live.Shards[i].searchFront, &recovered.Shards[i].searchFront, differentialKeywords)
		}
		sameKeywordReads(t, &live.searchFront, &recovered.searchFront, differentialKeywords)
		if deals < cfg.Deals {
			t.Fatalf("%d deals across the shards, want at least %d", deals, cfg.Deals)
		}
		t.Logf("%d deals on 3 shards, %d searches per shard identical after recovery", deals, len(queries))
	})
}

// TestRecoveryBuildsSynopsesOnce: whatever the tail's length, LoadSystem
// writes the synopsis store once — one Load and no Put or Delete — so the
// tail costs analysis, not a DELETE scan per record.
func TestRecoveryBuildsSynopsesOnce(t *testing.T) {
	cfg := synth.SmallConfig()
	corpus, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial, held := heldBack(corpus.Docs, 3)
	for _, records := range []int{4, 64} {
		t.Run(fmt.Sprint(records), func(t *testing.T) {
			if len(held) < records {
				t.Fatalf("%d held-back documents for %d records", len(held), records)
			}
			live, err := Ingest(initial, Options{Directory: corpus.Directory})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := live.EnableWAL(dir, 1); err != nil {
				t.Fatal(err)
			}
			for _, d := range held[:records] {
				if err := live.AddDocuments([]*docmodel.Document{d}); err != nil {
					t.Fatal(err)
				}
			}
			recovered, err := LoadSystem(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := recovered.Metrics.Counter("durable_wal_replay_records_total").Value(); n != int64(records) {
				t.Fatalf("replayed %v records, want %d", n, records)
			}
			if w := recovered.Synopses.Writes(); w != (synopsis.Writes{Loads: 1}) {
				t.Fatalf("recovery wrote the synopsis store %+v, want exactly one Load", w)
			}
			wantIDs, _ := live.Synopses.DealIDs()
			if gotIDs, err := recovered.Synopses.DealIDs(); err != nil || !slices.Equal(gotIDs, wantIDs) {
				t.Fatalf("deal ids: recovered %v (%v), live %v", gotIDs, err, wantIDs)
			}
		})
	}
}
