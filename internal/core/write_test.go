package core_test

import (
	"fmt"
	"strings"
	"testing"

	eil "repro"
	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/docparse"
	"repro/internal/obs"
	"repro/internal/synopsis"
	"repro/internal/synth"
	"repro/internal/trace"
)

// writer is what a monolith and a cluster have in common for this test.
type writer interface {
	Search(access.User, core.FormQuery) (core.Result, error)
	AddDocuments([]*docmodel.Document) error
	Registry() *obs.Registry
	RequestTracer() *trace.Tracer
}

// TestWriteKeepsUnrelatedEntries: 64 memoized form queries, one AddDocuments
// of a deal none of them lists or matches; every one of the 64 is still a
// synopsis-memo hit on every store (counted) and no page's Store.Get reads its
// tables (they are marked behind the stores' backs, and no page shows the
// mark). Not timed; on a monolith and through a 2-shard cluster.
func TestWriteKeepsUnrelatedEntries(t *testing.T) {
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := eil.Options{Directory: corpus.Directory, Workers: 1, Tracer: trace.New(trace.Options{})}
	mono, err := eil.Ingest(corpus.Docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Tracer = trace.New(trace.Options{})
	cluster, err := eil.IngestSharded(corpus.Docs, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries := unrelatedQueries(t, mono)
	t.Run("monolith", func(t *testing.T) {
		checkWriteKeeps(t, mono, []*synopsis.Store{mono.Synopses}, queries)
	})
	t.Run("cluster", func(t *testing.T) {
		stores := make([]*synopsis.Store, len(cluster.Shards))
		for i, s := range cluster.Shards {
			stores[i] = s.Synopses
		}
		checkWriteKeeps(t, cluster, stores, queries)
	})
}

// unrelatedQueries builds 64 form queries with distinct synopsis criteria out
// of the corpus's own values: a tower (never the new deal's) alone and
// crossed with each industry, consultant, geography and country in use.
func unrelatedQueries(t *testing.T, sys *eil.System) []core.FormQuery {
	t.Helper()
	towers := []string{"End User Services", "Storage Management Services", "Server Systems Management",
		"Disaster Recovery Services", "Data Center Services", "Application Management Services",
		"Security Services", "eBusiness Services", "Asset Management"}
	ids, err := sys.Synopses.DealIDs()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var variants []core.FormQuery
	add := func(q core.FormQuery) {
		if k := fmt.Sprint(q); !seen[k] {
			seen[k] = true
			variants = append(variants, q)
		}
	}
	add(core.FormQuery{})
	for _, id := range ids {
		d, err := sys.Synopses.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		add(core.FormQuery{Industry: d.Overview.Industry})
		add(core.FormQuery{Consultant: d.Overview.Consultant})
		add(core.FormQuery{Geography: d.Overview.Geography})
		add(core.FormQuery{Country: d.Overview.Country})
	}
	var out []core.FormQuery
	for _, v := range variants {
		for _, tw := range towers {
			q := v
			q.Tower, q.Limit = tw, 20
			out = append(out, q)
		}
	}
	if len(out) < 64 {
		t.Fatalf("fixture: only %d distinct queries", len(out))
	}
	return out[:64]
}

func checkWriteKeeps(t *testing.T, sys writer, stores []*synopsis.Store, queries []core.FormQuery) {
	t.Helper()
	admin := access.User{ID: "a", Roles: []access.Role{access.RoleAdmin}}
	const newDeal = "DEAL UNRELATED"
	hits := sys.Registry().Counter("synopsis_cache_hits_total")
	misses := sys.Registry().Counter("synopsis_cache_misses_total")
	dropped := sys.Registry().Counter("synopsis_memo_dropped_total")
	// A synopsis that shows mark was assembled from the tables after they
	// were marked below: its Get was not served from the memo.
	const mark = "READ FROM THE TABLES"
	// run issues every query once and returns how many activities came back
	// and the last deal listed.
	run := func() (activities int, listed string) {
		t.Helper()
		for _, q := range queries {
			res, err := sys.Search(admin, q)
			if err != nil {
				t.Fatalf("%+v: %v", q, err)
			}
			for _, a := range res.Activities {
				if a.DealID == newDeal {
					t.Fatalf("fixture: %+v lists the new deal", q)
				}
				if a.Synopsis == nil {
					t.Fatalf("%+v: %s came back without its synopsis", q, a.DealID)
				}
				if a.Synopsis.Overview.Customer == mark {
					t.Fatalf("%+v: Store.Get(%s) ran its statements, want it served from the memo", q, a.DealID)
				}
				listed = a.DealID
			}
			activities += len(res.Activities)
		}
		return activities, listed
	}
	want, listed := run() // fill both memos
	if want == 0 {
		t.Fatal("fixture: no query returned an activity, so no Get was exercised")
	}

	var docs []*docmodel.Document
	for name, content := range map[string]string{
		"overview.txt": "Deal Overview\nCustomer: Nova Corp\nIndustry: Mining\nScope summary: Network Services.\n",
		"scope.deck":   "# Services Scope Baseline\n- Network Services\n",
	} {
		doc, err := docparse.Parse(newDeal+"/"+name, content)
		if err != nil {
			t.Fatal(err)
		}
		doc.DealID = newDeal
		docs = append(docs, doc)
	}
	// Mark every deal row behind the memo: delete it and insert it again
	// with mark as its customer.
	for _, st := range stores {
		conn := st.Conn()
		rows, err := conn.Query(`SELECT id, customer, industry, consultant, geography, country,
			term_start, term_months, tcv_band, international, repository FROM deals`)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows.Data {
			if _, err := conn.Exec(`DELETE FROM deals WHERE id = ?`, row[0]); err != nil {
				t.Fatal(err)
			}
			row[1] = mark
			if _, err := conn.Exec(`INSERT INTO deals VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`, row...); err != nil {
				t.Fatal(err)
			}
		}
	}
	h0, m0, d0 := hits.Value(), misses.Value(), dropped.Value()
	if err := sys.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	if got, _ := run(); got != want {
		t.Fatalf("activities after the write: %d, before: %d", got, want)
	}
	// Every store answers every query: one memo read per query and shard.
	reads := int64(len(queries) * len(stores))
	if h, m := hits.Value()-h0, misses.Value()-m0; h != reads || m != 0 {
		t.Errorf("after an unrelated AddDocuments: %d synopsis-memo hits and %d misses, want %d and 0", h, m, reads)
	}
	if d := dropped.Value() - d0; d != 0 {
		t.Errorf("synopsis_memo_dropped_total moved by %d on an unrelated write, want 0", d)
	}
	if got := lastWriteTrace(t, sys.RequestTracer()); got != "deals=1 memo_dropped=0" {
		t.Errorf("trace of the unrelated write: %s", got)
	}

	// The counter moves when a write does cost entries: growing a listed
	// deal drops that deal's Get entry and every query that lists it.
	doc, err := docparse.Parse(listed+"/late-roster.grid", "GRID Deal Team Roster\nName | Role | Email | Phone\nLate Addition | PE | late.addition@ibm.com |\n")
	if err != nil {
		t.Fatal(err)
	}
	doc.DealID = listed
	if err := sys.AddDocuments([]*docmodel.Document{doc}); err != nil {
		t.Fatal(err)
	}
	if d := dropped.Value() - d0; d < 2 {
		t.Errorf("growing %s dropped %d memo entries, want its Get entry and the queries listing it", listed, d)
	}
	if got, want := lastWriteTrace(t, sys.RequestTracer()), fmt.Sprintf("deals=1 memo_dropped=%d", dropped.Value()-d0); got != want {
		t.Errorf("trace of the related write: %s, want %s", got, want)
	}
	if m := misses.Value(); m != m0 {
		t.Fatalf("misses moved before the re-read: %d -> %d", m0, m)
	}
	run()
	if d, m := dropped.Value()-d0, misses.Value()-m0; m == 0 || m >= d {
		t.Errorf("re-read after the related write: %d misses for %d dropped entries (one of them a Get entry)", m, d)
	}
}

// lastWriteTrace renders the attributes of the newest update.synopses trace.
func lastWriteTrace(t *testing.T, tr *trace.Tracer) string {
	t.Helper()
	for _, w := range tr.Recent(0) {
		if w.Route == "update.synopses" {
			var out []string
			for _, a := range w.Spans()[0].Attrs {
				out = append(out, a.Key+"="+a.Value)
			}
			return strings.Join(out, " ")
		}
	}
	t.Fatal("no update.synopses trace")
	return ""
}
