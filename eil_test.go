package eil

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/relstore"
	"repro/internal/serving"
	"repro/internal/synopsis"
	"repro/internal/synth"
	"repro/internal/trace"
)

func testSystem(t *testing.T, opts Options) (*synth.Corpus, *System) {
	t.Helper()
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if opts.Directory == nil {
		opts.Directory = corpus.Directory
	}
	sys, err := Ingest(corpus.Docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return corpus, sys
}

func admin() access.User {
	return access.User{ID: "a", Name: "Admin", Roles: []access.Role{access.RoleAdmin}}
}

func TestIngestPopulatesEverything(t *testing.T) {
	corpus, sys := testSystem(t, Options{})
	if sys.Index.DocCount() != len(corpus.Docs) {
		t.Fatalf("indexed %d of %d docs", sys.Index.DocCount(), len(corpus.Docs))
	}
	if sys.Stats.Failed != 0 {
		t.Fatalf("failed docs: %+v", sys.Stats.Errors)
	}
	ids, err := sys.Synopses.DealIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(corpus.DealIDs) {
		t.Fatalf("synopses for %d of %d deals", len(ids), len(corpus.DealIDs))
	}
}

func TestSearchEndToEnd(t *testing.T) {
	corpus, sys := testSystem(t, Options{})
	res, err := sys.Search(admin(), core.FormQuery{Tower: "Storage Management Services"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) == 0 {
		t.Fatal("no activities")
	}
	// Every hit truly has the tower (concept precision on clean evidence).
	for _, a := range res.Activities {
		truth := corpus.Truth[a.DealID]
		if truth == nil || !truth.HasTower("Storage Management Services") {
			t.Fatalf("false activity %s", a.DealID)
		}
	}
}

func TestKeywordBaseline(t *testing.T) {
	_, sys := testSystem(t, Options{})
	hits := sys.KeywordSearch(`"cross tower TSA"`, 10)
	if len(hits) == 0 {
		t.Fatal("keyword baseline found nothing")
	}
	if n := sys.KeywordCount(`"cross tower TSA"`); n < len(hits) {
		t.Fatalf("count %d < hits %d", n, len(hits))
	}
	if sys.KeywordCount("zzzznonexistent") != 0 {
		t.Fatal("ghost keyword matched")
	}
}

func TestDealAccessControl(t *testing.T) {
	ctl := access.NewController()
	corpus, sys := testSystem(t, Options{Access: ctl})
	dealID := corpus.DealIDs[0]
	sales := access.User{ID: "s", Roles: []access.Role{access.RoleSales}}
	if _, err := sys.Deal(sales, dealID); err != nil {
		t.Fatalf("sales denied synopsis: %v", err)
	}
	nobody := access.User{ID: "n"}
	if _, err := sys.Deal(nobody, dealID); err == nil {
		t.Fatal("roleless user saw a synopsis")
	}
}

func TestIngestFromFS(t *testing.T) {
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := crawler.WriteTree(root, corpus.Docs, corpus.Raw); err != nil {
		t.Fatal(err)
	}
	reader, err := crawler.NewFSReader(root)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := IngestFrom(reader, Options{Directory: corpus.Directory})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Index.DocCount() != len(corpus.Docs) {
		t.Fatalf("fs ingest: %d of %d docs", sys.Index.DocCount(), len(corpus.Docs))
	}
	res, err := sys.Search(admin(), core.FormQuery{PersonName: synth.PlantedPerson})
	if err != nil || len(res.Activities) == 0 {
		t.Fatalf("planted person lost through fs round trip: %v, %v", res.Activities, err)
	}
}

func TestBlobOptionDegrades(t *testing.T) {
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	full, err := Ingest(corpus.Docs, Options{Directory: corpus.Directory})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Ingest(corpus.Docs, Options{Directory: corpus.Directory, BlobParsing: true})
	if err != nil {
		t.Fatal(err)
	}
	count := func(s *System) int {
		total := 0
		ids, _ := s.Synopses.DealIDs()
		for _, id := range ids {
			d, err := s.Synopses.Get(id)
			if err == nil {
				total += len(d.People)
			}
		}
		return total
	}
	if count(blob) >= count(full) {
		t.Fatalf("blob parsing did not lose contacts: %d vs %d", count(blob), count(full))
	}
}

func TestWorkersOption(t *testing.T) {
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	one, err := Ingest(corpus.Docs, Options{Directory: corpus.Directory, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Ingest(corpus.Docs, Options{Directory: corpus.Directory, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Parallelism must not change results: compare synopses.
	idsA, _ := one.Synopses.DealIDs()
	idsB, _ := many.Synopses.DealIDs()
	if len(idsA) != len(idsB) {
		t.Fatalf("deal counts differ: %d vs %d", len(idsA), len(idsB))
	}
	for i := range idsA {
		a, _ := one.Synopses.Get(idsA[i])
		b, _ := many.Synopses.Get(idsA[i])
		if len(a.People) != len(b.People) || len(a.Towers) != len(b.Towers) {
			t.Fatalf("deal %s differs under parallelism: %d/%d people, %d/%d towers",
				idsA[i], len(a.People), len(b.People), len(a.Towers), len(b.Towers))
		}
	}
}

// TestQueryLogRecords: a traced search sets its query-log facts on its root
// span; an untraced one costs nothing and is not logged.
func TestQueryLogRecords(t *testing.T) {
	_, sys := testSystem(t, Options{})
	tracer := trace.New(trace.Options{})
	traced := func(search func(ctx context.Context) error) {
		t.Helper()
		ctx, tr := tracer.Start(context.Background(), "test", trace.StartOptions{})
		if err := search(ctx); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
	}
	traced(func(ctx context.Context) error {
		_, err := sys.SearchCtx(ctx, admin(), core.FormQuery{Tower: "End User Services"})
		return err
	})
	traced(func(ctx context.Context) error {
		_, err := sys.SearchCtx(ctx, admin(), core.FormQuery{AllWords: []string{"replication"}})
		return err
	})
	traced(func(ctx context.Context) error {
		sys.KeywordSearchCtx(ctx, "cross tower", 5)
		return nil
	})
	if _, err := sys.Search(admin(), core.FormQuery{Tower: "Network Services"}); err != nil {
		t.Fatal(err)
	}
	entries := serving.LoggedQueries(tracer.Recent(0))
	s := serving.SummarizeQueries(entries, 5)
	if s.Total != 3 || s.Keyword != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Fallbacks != 1 {
		t.Fatalf("fallback count = %d", s.Fallbacks)
	}
	if len(s.TopConcepts) != 1 || s.TopConcepts[0].Concept != "End User Services" {
		t.Fatalf("top concepts = %+v", s.TopConcepts)
	}
	if e := entries[0]; e.Summary != "tower=End User Services" || e.User != admin().ID || e.Kind != serving.KindForm {
		t.Fatalf("first entry = %+v", e)
	}
	if e := entries[2]; e.Kind != serving.KindKeyword || e.Activities != sys.KeywordCount("cross tower") || e.Activities <= 5 {
		t.Fatalf("keyword entry = %+v, want the true match count %d", e, sys.KeywordCount("cross tower"))
	}
}

func TestDedupOption(t *testing.T) {
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if corpus.PlantedDuplicates == 0 {
		t.Skip("no duplicates planted at this seed/size")
	}
	plain, err := Ingest(corpus.Docs, Options{Directory: corpus.Directory})
	if err != nil {
		t.Fatal(err)
	}
	deduped, err := Ingest(corpus.Docs, Options{Directory: corpus.Directory, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(deduped.Duplicates) < corpus.PlantedDuplicates {
		t.Fatalf("dedup dropped %d, generator planted %d", len(deduped.Duplicates), corpus.PlantedDuplicates)
	}
	if deduped.Index.DocCount() != plain.Index.DocCount()-len(deduped.Duplicates) {
		t.Fatalf("doc counts: %d plain, %d deduped, %d dropped",
			plain.Index.DocCount(), deduped.Index.DocCount(), len(deduped.Duplicates))
	}
	// Every dropped path is a planted copy or a legitimate near-duplicate;
	// all planted copies must be among them.
	dropped := map[string]bool{}
	for _, p := range deduped.Duplicates {
		dropped[p] = true
	}
	for path := range corpus.Raw {
		if strings.Contains(path, "copy-of-") && !dropped[path] {
			t.Fatalf("planted copy survived: %s", path)
		}
	}
}

// TestBulkLoadMatchesPutPerDeal: the store a bulk ingest loads in one pass
// holds what a Put per deal, in the builder's order, would have stored —
// every synopsis, the deal list, and every table's rows in slot order.
func TestBulkLoadMatchesPutPerDeal(t *testing.T) {
	cfg := synth.SmallConfig()
	cfg.Deals, cfg.NoiseDocsPerDeal = 24, 10
	corpus, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Ingest(corpus.Docs, Options{Directory: corpus.Directory})
	if err != nil {
		t.Fatal(err)
	}
	put, err := synopsis.NewStore(relstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sys.builder.DealIDs() {
		deal, err := sys.builder.Finalize(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := put.Put(deal); err != nil {
			t.Fatal(err)
		}
	}
	loadedIDs, err := sys.Synopses.DealIDs()
	if err != nil {
		t.Fatal(err)
	}
	putIDs, err := put.DealIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(loadedIDs) < 20 || !reflect.DeepEqual(loadedIDs, putIDs) {
		t.Fatalf("deal ids: loaded %v, put %v", loadedIDs, putIDs)
	}
	for _, id := range loadedIDs {
		a, errA := sys.Synopses.Get(id)
		b, errB := put.Get(id)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: loaded %+v (%v), put %+v (%v)", id, a, errA, b, errB)
		}
	}
	// Every table's rows, in slot order: what a scan or an index lookup of
	// either store visits.
	for _, table := range []string{"deals", "deal_towers", "contacts", "win_strategies", "client_refs", "tech_solutions"} {
		loadedRows, errA := sys.Synopses.Conn().DB().Select(table, relstore.Sel{})
		putRows, errB := put.Conn().DB().Select(table, relstore.Sel{})
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v, %v", table, errA, errB)
		}
		if len(loadedRows) == 0 || !reflect.DeepEqual(loadedRows, putRows) {
			t.Fatalf("%s rows differ: loaded %d, put %d", table, len(loadedRows), len(putRows))
		}
	}
}

// Limit counts the activities a user may see: access control drops the
// invisible ones before the page is cut. A delivery user granted only the
// last of the EUS activities gets that one activity whatever the limit, on
// a monolith, a three-shard cluster and a synced follower alike.
func TestLimitCountsVisibleActivities(t *testing.T) {
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl := access.NewController()
	opts := Options{Directory: corpus.Directory, Workers: 1, Access: ctl}
	shapes := map[string]serving.Reader{}
	if shapes["monolith"], err = Ingest(corpus.Docs, opts); err != nil {
		t.Fatal(err)
	}
	if shapes["3 shards"], err = IngestSharded(corpus.Docs, 3, opts); err != nil {
		t.Fatal(err)
	}
	_, _, addr := replPrimary(t, nil)
	f, err := StartFollower(FollowerOptions{Dir: t.TempDir(), Addr: addr, Name: "limit", Access: ctl, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.WaitSynced(wctx, 0); err != nil {
		t.Fatal(err)
	}
	shapes["follower"] = f

	ctx := context.Background()
	q := core.FormQuery{Tower: "EUS"}
	all, err := shapes["monolith"].SearchCtx(ctx, admin(), q)
	if err != nil || len(all.Activities) != 3 {
		t.Fatalf("admin EUS search = %d activities (%v), want 3", len(all.Activities), err)
	}
	granted := all.Activities[2].DealID
	user := access.User{ID: "delivery-user", Roles: []access.Role{access.RoleDelivery}}
	ctl.Grant(user.ID, granted, access.LevelFull)
	for name, shape := range shapes {
		for _, limit := range []int{0, 1, 2} {
			q.Limit = limit
			res, err := shape.SearchCtx(ctx, user, q)
			if err != nil {
				t.Fatalf("%s, limit %d: %v", name, limit, err)
			}
			if len(res.Activities) != 1 || res.Activities[0].DealID != granted {
				t.Errorf("%s, limit %d: %d activities, want only the granted %s", name, limit, len(res.Activities), granted)
			}
		}
	}
}
