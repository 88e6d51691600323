package eil

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/docparse"
	"repro/internal/index"
	"repro/internal/synth"
)

func newDealDocs(t *testing.T, dealID string) []*docmodel.Document {
	t.Helper()
	files := []struct{ name, content string }{
		{"overview.txt", "Deal Overview\nCustomer: Nova Corp\nIndustry: Retail\nTotal Contract Value: over 100M\nScope summary: Network Services.\n"},
		{"scope.deck", "# Services Scope Baseline\n- Network Services\n- Voice Services coverage\n"},
		{"team.grid", "GRID Deal Team Roster\nName | Role | Email | Phone\nNew Person | CSE | new.person@ibm.com |\n"},
		{"tsa-1.grid", "GRID Network Services Service Details\nService Item | cross tower TSA | Notes\nNetwork Services item 1 | | pending\n"},
	}
	var docs []*docmodel.Document
	for _, f := range files {
		doc, err := docparse.Parse(dealID+"/"+f.name, f.content)
		if err != nil {
			t.Fatal(err)
		}
		doc.DealID = dealID
		docs = append(docs, doc)
	}
	return docs
}

func TestAddDocumentsNewDeal(t *testing.T) {
	_, sys := testSystem(t, Options{})
	before := sys.Index.DocCount()
	docs := newDealDocs(t, "DEAL NEW")
	if err := sys.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	if got := sys.Index.DocCount(); got != before+len(docs) {
		t.Fatalf("DocCount = %d, want %d", got, before+len(docs))
	}
	deal, err := sys.Synopses.Get("DEAL NEW")
	if err != nil {
		t.Fatal(err)
	}
	if deal.Overview.Customer != "Nova Corp" {
		t.Fatalf("overview = %+v", deal.Overview)
	}
	foundNetwork := false
	for _, tw := range deal.Towers {
		if tw.Tower == "Network Services" {
			foundNetwork = true
		}
	}
	if !foundNetwork {
		t.Fatalf("towers = %+v", deal.Towers)
	}
	// The new deal is searchable end to end.
	res, err := sys.Search(admin(), core.FormQuery{PersonName: "New Person"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 1 || res.Activities[0].DealID != "DEAL NEW" {
		t.Fatalf("activities = %+v", res.Activities)
	}
}

func TestAddDocumentsGrowsExistingDeal(t *testing.T) {
	corpus, sys := testSystem(t, Options{})
	dealID := corpus.DealIDs[1]
	before, err := sys.Synopses.Get(dealID)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := docparse.Parse(dealID+"/late-roster.grid", `GRID Deal Team Roster
Name | Role | Email | Phone
Late Addition | PE | late.addition@ibm.com | 555-9999
`)
	if err != nil {
		t.Fatal(err)
	}
	doc.DealID = dealID
	if err := sys.AddDocuments([]*docmodel.Document{doc}); err != nil {
		t.Fatal(err)
	}
	after, err := sys.Synopses.Get(dealID)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.People) != len(before.People)+1 {
		t.Fatalf("people %d -> %d, want +1", len(before.People), len(after.People))
	}
	found := false
	for _, p := range after.People {
		if p.Name == "Late Addition" {
			found = true
		}
	}
	if !found {
		t.Fatalf("late addition missing: %+v", after.People)
	}
}

func TestAddDocumentsDuplicatePathFails(t *testing.T) {
	corpus, sys := testSystem(t, Options{})
	dup := corpus.Docs[0]
	err := sys.AddDocuments([]*docmodel.Document{dup})
	if err == nil {
		t.Fatal("duplicate path re-ingested silently")
	}
}

func TestRemoveDeal(t *testing.T) {
	corpus, sys := testSystem(t, Options{})
	dealID := corpus.DealIDs[0]
	before := sys.Index.DocCount()
	removedDocs := len(sys.Index.ExtIDsByMeta("deal", dealID))
	if removedDocs == 0 {
		t.Fatal("no docs to remove")
	}
	if err := sys.RemoveDeal(dealID); err != nil {
		t.Fatal(err)
	}
	if got := sys.Index.DocCount(); got != before-removedDocs {
		t.Fatalf("DocCount = %d, want %d", got, before-removedDocs)
	}
	if _, err := sys.Synopses.Get(dealID); err == nil {
		t.Fatal("synopsis survived removal")
	}
	// Search no longer returns the deal.
	res, err := sys.Search(admin(), core.FormQuery{PersonName: synth.PlantedPerson})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Activities {
		if a.DealID == dealID {
			t.Fatal("removed deal still searchable")
		}
	}
	// And it can be re-added cleanly afterwards.
	if err := sys.AddDocuments(newDealDocs(t, dealID)); err != nil {
		t.Fatal(err)
	}
	deal, err := sys.Synopses.Get(dealID)
	if err != nil {
		t.Fatal(err)
	}
	if deal.Overview.Customer != "Nova Corp" {
		t.Fatalf("re-added deal kept stale state: %+v", deal.Overview)
	}
	for _, p := range deal.People {
		if p.Name == synth.PlantedPerson {
			t.Fatal("stale contact survived drop + re-add")
		}
	}
}

func TestRemoveDealValidation(t *testing.T) {
	_, sys := testSystem(t, Options{})
	if err := sys.RemoveDeal(""); err == nil {
		t.Fatal("empty id accepted")
	}
}

// TestRemoveAbsentDeal: removing a deal the state does not hold is refused
// with *DealNotFoundError on a journaling system, a cluster and a failover
// primary alike, and nothing is journaled for it.
func TestRemoveAbsentDeal(t *testing.T) {
	corpus, sys := testSystem(t, Options{Workers: 1})
	absent := func(shape, id string, err error) {
		t.Helper()
		var nf *DealNotFoundError
		if !errors.As(err, &nf) || nf.DealID != id {
			t.Fatalf("%s: RemoveDeal of an absent deal = %v, want *DealNotFoundError", shape, err)
		}
	}
	h, err := NewPrimaryHANode(sys, HANodeOptions{Name: "p", Dir: t.TempDir(), ListenAddr: "127.0.0.1:0", SyncEvery: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	_, before := sys.ReplPosition()
	absent("system", "NO SUCH DEAL", sys.RemoveDeal("NO SUCH DEAL"))
	absent("failover primary", "NO SUCH DEAL", h.RemoveDeal("NO SUCH DEAL"))
	if _, after := sys.ReplPosition(); after != before {
		t.Fatalf("refused removals moved the journal from seq %d to %d", before, after)
	}
	if err := h.RemoveDeal(corpus.DealIDs[0]); err != nil {
		t.Fatal(err)
	}
	absent("system after removal", corpus.DealIDs[0], sys.RemoveDeal(corpus.DealIDs[0]))

	cluster, err := IngestSharded(corpus.Docs, 2, Options{Directory: corpus.Directory})
	if err != nil {
		t.Fatal(err)
	}
	absent("cluster", "NO SUCH DEAL", cluster.RemoveDeal("NO SUCH DEAL"))
	if err := cluster.RemoveDeal(corpus.DealIDs[0]); err != nil {
		t.Fatal(err)
	}
}

// TestReplayAbsentRemoval: a journal written before RemoveDeal refused
// absent deals may hold a removal of one; recovery replays it as a no-op.
func TestReplayAbsentRemoval(t *testing.T) {
	corpus, live := testSystem(t, Options{})
	dir := t.TempDir()
	if err := live.Save(dir); err != nil {
		t.Fatal(err)
	}
	sys, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableWAL(dir, 1); err != nil {
		t.Fatal(err)
	}
	sys.upMu.Lock()
	err = sys.journalLocked(walOpRemoveDeal, []byte("NO SUCH DEAL"))
	sys.upMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveDeal(corpus.DealIDs[0]); err != nil {
		t.Fatal(err)
	}
	recovered, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatalf("replaying an absent deal's removal: %v", err)
	}
	if got, want := recovered.Index.DocCount(), sys.Index.DocCount(); got != want {
		t.Fatalf("recovered %d documents, want %d", got, want)
	}
	if _, err := recovered.Synopses.Get(corpus.DealIDs[0]); err == nil {
		t.Fatal("the journaled removal after the absent one was not replayed")
	}
}

func TestRestoredSystemUpdatable(t *testing.T) {
	// Systems restored from disk accept updates exactly like live ones:
	// LoadSystem rebuilds the pipeline state from the persisted snapshot.
	_, sys := testSystem(t, Options{})
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.AddDocuments(newDealDocs(t, "DEAL X")); err != nil {
		t.Fatalf("restored system rejected AddDocuments: %v", err)
	}
	deal, err := loaded.Synopses.Get("DEAL X")
	if err != nil {
		t.Fatal(err)
	}
	if deal.Overview.Customer != "Nova Corp" {
		t.Fatalf("overview = %+v", deal.Overview)
	}
	res, err := loaded.Search(admin(), core.FormQuery{PersonName: "New Person"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 1 || res.Activities[0].DealID != "DEAL X" {
		t.Fatalf("activities = %+v", res.Activities)
	}
	// Removal works too.
	ids, _ := loaded.Synopses.DealIDs()
	if len(ids) == 0 {
		t.Fatal("no deals")
	}
	if err := loaded.RemoveDeal(ids[0]); err != nil {
		t.Fatal(err)
	}
}

func TestAddDocumentsInBatchDuplicateAborts(t *testing.T) {
	// A duplicate anywhere in the batch fails validation before anything is
	// applied: no documents land in the index, no synopsis is created.
	_, sys := testSystem(t, Options{})
	before := sys.Index.DocCount()
	docs := newDealDocs(t, "DEAL DUP")
	docs = append(docs, docs[0]) // repeat the first path inside the batch
	err := sys.AddDocuments(docs)
	if !errors.Is(err, index.ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	if got := sys.Index.DocCount(); got != before {
		t.Fatalf("DocCount = %d after aborted batch, want %d", got, before)
	}
	if _, err := sys.Synopses.Get("DEAL DUP"); err == nil {
		t.Fatal("synopsis created by aborted batch")
	}
}

func TestAddDocumentsEmptyPathAborts(t *testing.T) {
	// The index writer flushes every 256 documents, so a batch longer than
	// that whose bad document comes late must be refused by validation, not
	// by a flush after earlier flushes of it were indexed.
	_, sys := testSystem(t, Options{})
	before := sys.Index.DocCount()
	var docs []*docmodel.Document
	for i := 0; i < 300; i++ {
		doc, err := docparse.Parse(fmt.Sprintf("DEAL LONG/note-%03d.txt", i), fmt.Sprintf("Note %d\nNetwork Services follow-up.\n", i))
		if err != nil {
			t.Fatal(err)
		}
		doc.DealID = "DEAL LONG"
		docs = append(docs, doc)
	}
	good := docs[290].Path
	docs[290].Path = ""
	if err := sys.AddDocuments(docs); err == nil {
		t.Fatal("batch with an empty path accepted")
	}
	if got := sys.Index.DocCount(); got != before {
		t.Fatalf("DocCount = %d after refused batch, want %d", got, before)
	}
	if sys.builder.Has("DEAL LONG") {
		t.Fatal("analysis state holds the refused batch's deal")
	}
	docs[290].Path = good
	if err := sys.AddDocuments(docs); err != nil {
		t.Fatalf("corrected batch: %v", err)
	}
	if got := sys.Index.DocCount(); got != before+len(docs) {
		t.Fatalf("DocCount = %d after corrected batch, want %d", got, before+len(docs))
	}
}

func TestPartialBatchError(t *testing.T) {
	underlying := errors.New("disk on fire")
	err := error(&PartialBatchError{
		Applied: []string{"d/a.txt", "d/b.txt"},
		Failed:  "d/c.txt",
		Err:     underlying,
	})
	if !errors.Is(err, underlying) {
		t.Fatal("Unwrap lost the underlying error")
	}
	var pbe *PartialBatchError
	if !errors.As(err, &pbe) || len(pbe.Applied) != 2 || pbe.Failed != "d/c.txt" {
		t.Fatalf("errors.As = %+v", pbe)
	}
	for _, want := range []string{"d/a.txt", "d/c.txt", "disk on fire"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Error() = %q, missing %q", err.Error(), want)
		}
	}
}

func TestCompactDuringSearch(t *testing.T) {
	// Compact swaps the live engine atomically; searches running concurrently
	// must see either the old or the new backend, never a torn mix. Run under
	// -race (the CI race job does) this is the regression test for the old
	// unsynchronized field reassignment in Compact.
	corpus, sys := testSystem(t, Options{})
	if err := sys.RemoveDeal(corpus.DealIDs[0]); err != nil {
		t.Fatal(err)
	}
	q := core.FormQuery{Tower: "End User Services"}
	want, err := sys.Search(admin(), q)
	if err != nil {
		t.Fatal(err)
	}
	wantHits := sys.KeywordCount("services")
	if wantHits == 0 {
		t.Fatal("no keyword hits to race against")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sys.Search(admin(), q)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Activities) != len(want.Activities) {
					errs <- fmt.Errorf("torn search: %d activities, want %d",
						len(res.Activities), len(want.Activities))
					return
				}
				if got := sys.KeywordCount("services"); got != wantHits {
					errs <- fmt.Errorf("keyword count %d mid-compact, want %d", got, wantHits)
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if err := sys.Compact(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestAddDocumentsManyBatches(t *testing.T) {
	_, sys := testSystem(t, Options{})
	for i := 0; i < 5; i++ {
		docs := newDealDocs(t, fmt.Sprintf("DEAL BATCH %d", i))
		if err := sys.AddDocuments(docs); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := sys.Synopses.DealIDs()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, id := range ids {
		if len(id) > 10 && id[:10] == "DEAL BATCH" {
			count++
		}
	}
	if count != 5 {
		t.Fatalf("batch deals = %d", count)
	}
}

func TestCompactAfterRemove(t *testing.T) {
	corpus, sys := testSystem(t, Options{})
	if err := sys.RemoveDeal(corpus.DealIDs[0]); err != nil {
		t.Fatal(err)
	}
	live := sys.Index.DocCount()
	q := core.FormQuery{Tower: "End User Services"}
	before, err := sys.Search(admin(), q)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	if sys.Index.DocCount() != live {
		t.Fatalf("compact changed live count: %d vs %d", sys.Index.DocCount(), live)
	}
	after, err := sys.Search(admin(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Activities) != len(after.Activities) {
		t.Fatalf("compact changed results: %d vs %d", len(before.Activities), len(after.Activities))
	}
	// Incremental ingest still works through the swapped index.
	if err := sys.AddDocuments(newDealDocs(t, "DEAL POST COMPACT")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Synopses.Get("DEAL POST COMPACT"); err != nil {
		t.Fatal(err)
	}
}
