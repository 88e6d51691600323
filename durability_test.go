package eil

// System-level durability: the write-ahead journal, crash recovery, and the
// differential acceptance test from the durability design — a system that
// crashed after journaled updates and recovered must answer the same
// queries as one that never crashed, and must keep accepting updates.

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/annotators"
	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/relstore"
	"repro/internal/synopsis"
	"repro/internal/synth"
)

// queryFingerprint runs a fixed query set and renders the results as one
// comparable string: activity IDs per form query, counts per keyword query.
func queryFingerprint(t *testing.T, sys *System) string {
	t.Helper()
	out := ""
	forms := []core.FormQuery{
		{Tower: "End User Services"},
		{Tower: "Storage Management Services", ExactPhrase: "data replication"},
		{PersonName: synth.PlantedPerson},
		{PersonName: "New Person"},
		{Industry: "Retail"},
	}
	for _, q := range forms {
		res, err := sys.Search(admin(), q)
		if err != nil {
			t.Fatal(err)
		}
		out += "form:"
		for _, a := range res.Activities {
			out += a.DealID + ","
		}
		out += "\n"
	}
	for _, kw := range []string{"services", "data replication", "cross tower TSA"} {
		out += fmt.Sprintf("kw %s: %d\n", kw, sys.KeywordCount(kw))
	}
	return out
}

func TestWALRecoveryDifferential(t *testing.T) {
	// Two identical systems. Both take the same updates; one journals them,
	// "crashes" (its in-memory state is abandoned without a save), and is
	// recovered from snapshot+journal. The recovered system must answer the
	// fixed query set identically to the never-crashed live one — and keep
	// accepting updates (the old restored-systems-are-frozen bug).
	_, live := testSystem(t, Options{})
	dir := t.TempDir()
	if err := live.Save(dir); err != nil {
		t.Fatal(err)
	}
	crashy, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashy.EnableWAL(dir, 1); err != nil {
		t.Fatal(err)
	}

	apply := func(s *System) {
		if err := s.AddDocuments(newDealDocs(t, "DEAL JOURNALED")); err != nil {
			t.Fatal(err)
		}
		ids, err := s.Synopses.DealIDs()
		if err != nil || len(ids) == 0 {
			t.Fatalf("deal ids: %v, %v", ids, err)
		}
		if err := s.RemoveDeal(ids[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := s.AddDocuments(newDealDocs(t, "DEAL JOURNALED 2")); err != nil {
			t.Fatal(err)
		}
	}
	apply(live)
	apply(crashy)
	// Crash: no Save, no CloseWAL — the journal is all that survives.

	recovered, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := queryFingerprint(t, recovered), queryFingerprint(t, live); got != want {
		t.Fatalf("recovered system diverged from never-crashed one:\nrecovered:\n%s\nlive:\n%s", got, want)
	}
	if recovered.Index.DocCount() != live.Index.DocCount() {
		t.Fatalf("doc count %d vs %d", recovered.Index.DocCount(), live.Index.DocCount())
	}
	// The acceptance bar: a WAL-restored system accepts AddDocuments.
	if err := recovered.AddDocuments(newDealDocs(t, "DEAL POST RECOVERY")); err != nil {
		t.Fatalf("recovered system rejected AddDocuments: %v", err)
	}
	if _, err := recovered.Synopses.Get("DEAL POST RECOVERY"); err != nil {
		t.Fatal(err)
	}
}

func TestWALTornTailRecovered(t *testing.T) {
	// A crash mid-append tears the journal's last record. Recovery must keep
	// every record before the tear and drop the torn tail — not fail.
	_, sys := testSystem(t, Options{})
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableWAL(dir, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocuments(newDealDocs(t, "DEAL KEPT")); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocuments(newDealDocs(t, "DEAL TORN")); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, durable.WALName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	recovered, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.Synopses.Get("DEAL KEPT"); err != nil {
		t.Fatalf("intact journal record lost: %v", err)
	}
	if _, err := recovered.Synopses.Get("DEAL TORN"); err == nil {
		t.Fatal("torn journal record replayed")
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	_, sys := testSystem(t, Options{})
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableWAL(dir, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocuments(newDealDocs(t, "DEAL CHECKPOINTED")); err != nil {
		t.Fatal(err)
	}
	gen, err := sys.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := durable.ReplayWAL(dir, durable.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Base != gen || len(rep.Records) != 0 {
		t.Fatalf("journal after checkpoint: base %d (gen %d), %d records", rep.Base, gen, len(rep.Records))
	}
	// And the checkpointed state is the whole state.
	recovered, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.Synopses.Get("DEAL CHECKPOINTED"); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotFallbackToPreviousGeneration(t *testing.T) {
	// Corrupting the newest generation's index must not lose the system:
	// load falls back to the previous committed generation.
	_, sys := testSystem(t, Options{})
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocuments(newDealDocs(t, "DEAL GEN TWO")); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "gen-00000002", "index.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Generation() != 1 {
		t.Fatalf("served generation %d, want fallback to 1", recovered.Generation())
	}
	if _, err := recovered.Synopses.Get("DEAL GEN TWO"); err == nil {
		t.Fatal("generation-two state served from corrupt snapshot")
	}
}

func TestLoadSystemCrashMatrix(t *testing.T) {
	// Truncate every durable file in the store at several offsets; LoadSystem
	// must never panic — it recovers (possibly to an older generation) or
	// fails with a typed error.
	_, sys := testSystem(t, Options{})
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableWAL(dir, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocuments(newDealDocs(t, "DEAL WAL")); err != nil {
		t.Fatal(err)
	}
	if err := sys.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("store layout: %v", files)
	}
	for _, path := range files {
		pristine, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Truncation points: empty, tiny, mid-file, one byte short.
		for _, n := range []int{0, 1, len(pristine) / 3, len(pristine) / 2, len(pristine) - 1} {
			if n < 0 || n > len(pristine) {
				continue
			}
			if err := os.WriteFile(path, pristine[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			recovered, lerr := LoadSystem(dir, nil) // must not panic
			if lerr != nil {
				if !errors.Is(lerr, durable.ErrNoSnapshot) && !errors.Is(lerr, durable.ErrCorrupt) &&
					!errors.Is(lerr, durable.ErrTorn) && !errors.Is(lerr, durable.ErrVersion) {
					t.Fatalf("%s truncated to %d: untyped error %v", path, n, lerr)
				}
			} else if recovered.Index.DocCount() == 0 {
				t.Fatalf("%s truncated to %d: loaded an empty system", path, n)
			}
		}
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Everything restored: the full state loads again.
	recovered, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.Synopses.Get("DEAL WAL"); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSystemLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "index.gob"), []byte("old gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadSystem(dir, nil)
	if !errors.Is(err, ErrLegacySnapshot) {
		t.Fatalf("err = %v, want ErrLegacySnapshot", err)
	}
}

func TestPipelineFormatBumpRejected(t *testing.T) {
	// A pipeline component from a future format must fail the generation
	// with a typed version error (here: the whole load, since there is only
	// one generation).
	_, sys := testSystem(t, Options{})
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Rewrite the pipeline component with a bumped format, re-framed and
	// re-checksummed so only the version check can reject it.
	st, err := durable.OpenStore(dir, durable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit([]durable.Component{
		{Name: "index", Write: func(w io.Writer) error { _, err := sys.Index.WriteTo(w); return err }},
		{Name: "pipeline", Write: func(w io.Writer) error {
			return gob.NewEncoder(w).Encode(pipelineSnapshot{Format: pipelineFormat + 1})
		}},
	}); err != nil {
		t.Fatal(err)
	}
	// Remove the older good generation so there is no fallback.
	if err := os.RemoveAll(filepath.Join(dir, "gen-00000001")); err != nil {
		t.Fatal(err)
	}
	_, err = LoadSystem(dir, nil)
	if !errors.Is(err, durable.ErrVersion) && !errors.Is(err, durable.ErrNoSnapshot) {
		t.Fatalf("err = %v, want version/no-snapshot", err)
	}
	if err == nil {
		t.Fatal("future pipeline format loaded")
	}
}

// A pipeline state the synopsis rebuild refuses (here a deal with no ID)
// fails its generation as corrupt, so recovery falls back to the previous
// one.
func TestSynopsisRebuildFailureFallsBack(t *testing.T) {
	rebuildFailureFallsBack(t, func(st *annotators.BuilderState) {
		st.Deals = append(st.Deals, annotators.DealState{})
	})
}

// The duplicate-ID twin: End would refuse a deal listed twice (the deals
// table's primary key), so RestoreState does, and the generation falls back
// before the journal tail replays on top of it.
func TestDuplicateDealStateFallsBack(t *testing.T) {
	rebuildFailureFallsBack(t, func(st *annotators.BuilderState) {
		st.Deals = append(st.Deals, st.Deals[len(st.Deals)-1])
	})
}

// rebuildFailureFallsBack commits a second generation whose pipeline state
// corrupt spoils and requires LoadSystem to fall back to the first.
func rebuildFailureFallsBack(t *testing.T, corrupt func(*annotators.BuilderState)) {
	t.Helper()
	_, sys := testSystem(t, Options{})
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	st, err := durable.OpenStore(dir, durable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := sys.builder.State()
	corrupt(bad)
	if _, err := st.Commit([]durable.Component{
		{Name: "index", Write: func(w io.Writer) error { _, err := sys.Index.WriteTo(w); return err }},
		{Name: "pipeline", Write: func(w io.Writer) error {
			return gob.NewEncoder(w).Encode(pipelineSnapshot{Format: pipelineFormat, Flow: "eil-flow", Builder: bad})
		}},
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen := loaded.Generation(); gen != 1 {
		t.Fatalf("loaded generation %d, want the fallback to 1", gen)
	}
	if got := loaded.Metrics.Counter("durable_snapshot_fallbacks_total").Value(); got != 1 {
		t.Fatalf("fallbacks = %v, want 1", got)
	}
}

// TestRecoveryRebuildsReorderedSynopses: LoadSystem rebuilds the synopsis
// database from the pipeline state, in the builder's deal order, while the
// live store's rows moved: every AddDocuments to an existing deal re-Puts
// it at the end of each table. The recovered system must still hold the
// same deals and answer Get and a generated set of synopsis searches
// identically. The ingest sets a directory and a non-default scope
// threshold, both of which the rebuild must reapply.
func TestRecoveryRebuildsReorderedSynopses(t *testing.T) {
	cfg := synth.SmallConfig()
	cfg.Deals, cfg.NoiseDocsPerDeal = 12, 10
	corpus, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hold back one in eight of each deal's documents, to be added later.
	var initial, held []*docmodel.Document
	seen := map[string]int{}
	for _, d := range corpus.Docs {
		if seen[d.DealID]++; d.DealID != "" && seen[d.DealID]%8 == 0 {
			held = append(held, d)
		} else {
			initial = append(initial, d)
		}
	}
	// Added back in reverse deal order, so each re-Put moves a deal's rows
	// behind those of deals the builder saw after it.
	slices.Reverse(held)
	live, err := Ingest(initial, Options{Directory: corpus.Directory, MinScopeWeight: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := live.Synopses.DealIDs()
	if err != nil || len(ids) != cfg.Deals {
		t.Fatalf("deal ids %v, %v", ids, err)
	}
	// Removed before the checkpoint and re-created in the tail from its
	// held-back documents; removed in the tail after all of its came back.
	removedFirst, removedLast := held[len(held)-1].DealID, held[0].DealID

	// Queries over every value any deal's synopsis holds, removed deals'
	// included, collected before anything moves.
	queries := map[string]synopsis.Query{}
	add := func(q synopsis.Query) { queries[fmt.Sprintf("%+v", q)] = q }
	for _, id := range ids {
		d, err := live.Synopses.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		o := d.Overview
		add(synopsis.Query{Industry: o.Industry})
		add(synopsis.Query{Geography: o.Geography, Country: o.Country})
		for _, tw := range d.Towers {
			add(synopsis.Query{Tower: tw.Tower})
			add(synopsis.Query{Tower: tw.Tower, SubTower: tw.SubTower})
			add(synopsis.Query{SubTower: tw.SubTower})
		}
		for _, p := range d.People {
			add(synopsis.Query{PersonName: p.Name})
			add(synopsis.Query{PersonOrg: p.Org})
		}
	}

	dir := t.TempDir()
	if err := live.EnableWAL(dir, 1); err != nil {
		t.Fatal(err)
	}
	addHeld := func(docs []*docmodel.Document) {
		for len(docs) > 0 {
			n := min(5, len(docs))
			if err := live.AddDocuments(docs[:n]); err != nil {
				t.Fatal(err)
			}
			docs = docs[n:]
		}
	}
	half := len(held) / 2
	addHeld(held[:half])
	if err := live.RemoveDeal(removedFirst); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	// The journaled tail: the rest of the held-back documents (re-creating
	// the removed deal from them), another removal and a new deal.
	addHeld(held[half:])
	if err := live.RemoveDeal(removedLast); err != nil {
		t.Fatal(err)
	}
	if err := live.AddDocuments(newDealDocs(t, "DEAL TAIL")); err != nil {
		t.Fatal(err)
	}

	recovered, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, err := live.Synopses.DealIDs()
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, err := recovered.Synopses.DealIDs()
	if err != nil || !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("deal ids: recovered %v (%v), live %v", gotIDs, err, wantIDs)
	}
	for _, id := range wantIDs {
		want, errW := live.Synopses.Get(id)
		got, errG := recovered.Synopses.Get(id)
		if errW != nil || errG != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recovered %+v (%v), live %+v (%v)", id, got, errG, want, errW)
		}
	}
	if !slices.Contains(gotIDs, removedFirst) || slices.Contains(gotIDs, removedLast) {
		t.Fatalf("deal ids %v: want %s re-created and %s removed", gotIDs, removedFirst, removedLast)
	}
	// The point of the history: the live tables' rows are no longer in the
	// builder's order, which is the order the rebuild inserts them in.
	order := func(sys *System) []relstore.Row {
		rows, err := sys.Synopses.Conn().DB().Select("deals", relstore.Sel{})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	if reflect.DeepEqual(order(live), order(recovered)) {
		t.Fatal("live rows never moved; the history is too tame")
	}
	withHits := 0
	for _, q := range queries {
		want, errW := live.Synopses.Search(q)
		got, errG := recovered.Synopses.Search(q)
		if errW != nil || errG != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("search %+v: recovered %+v (%v), live %+v (%v)", q, got, errG, want, errW)
		}
		if len(want) > 0 {
			withHits++
		}
	}
	if withHits < len(queries)/2 {
		t.Fatalf("only %d of %d searches returned hits; the query set is too sparse", withHits, len(queries))
	}
	t.Logf("%d deals, %d searches (%d with hits) identical after recovery", len(wantIDs), len(queries), withHits)
}

// holdsDeal reports whether sys serves anything of the deal: an indexed
// document or a synopsis.
func holdsDeal(sys *System, dealID string) bool {
	_, err := sys.Synopses.Get(dealID)
	return err == nil || len(sys.Index.ExtIDsByMeta("deal", dealID)) > 0
}

// TestFailedAppendPoisonsJournal: the journal is the commit point. An
// append that fails — a torn write, or a failed fsync — leaves the live
// system without the batch and poisons the journal, so no later write is
// acknowledged until a checkpoint re-establishes it. A crash right after
// the failure recovers the batch only when its bytes reached the file (the
// fsync case, whose outcome is indeterminate), and never anything after
// it. The checkpoint persists memory, so not the refused batch, and a
// batch acknowledged after it survives a reload.
func TestFailedAppendPoisonsJournal(t *testing.T) {
	for _, site := range []string{durable.SiteWrite, durable.SiteSync} {
		t.Run(site, func(t *testing.T) {
			_, sys := testSystem(t, Options{Workers: 1})
			dir := t.TempDir()
			inj := fault.New(1)
			sys.WALFS = &durable.FaultFS{Ctx: fault.With(context.Background(), inj)}
			if err := sys.EnableWAL(dir, 1); err != nil {
				t.Fatal(err)
			}
			defer sys.CloseWAL()
			if err := sys.AddDocuments(newDealDocs(t, "DEAL ZA")); err != nil {
				t.Fatal(err)
			}
			_, acked := sys.ReplPosition()

			inj.Add(&fault.Rule{Site: site, Mode: fault.ModeError, Times: 1})
			err := sys.AddDocuments(newDealDocs(t, "DEAL ZB"))
			if err == nil {
				t.Fatal("a batch whose append failed was acknowledged")
			}
			if site == durable.SiteSync && !strings.Contains(err.Error(), "whether a crash keeps it is unknown") {
				t.Fatalf("failed fsync reported as %q, which does not say the outcome is indeterminate", err)
			}
			if holdsDeal(sys, "DEAL ZB") {
				t.Fatal("the live system serves a batch whose append failed")
			}
			if _, seq := sys.ReplPosition(); seq != acked {
				t.Fatalf("position moved %d -> %d on a failed append", acked, seq)
			}

			// The fault is spent, but the journal stays poisoned.
			err = sys.AddDocuments(newDealDocs(t, "DEAL ZC"))
			if err == nil || !strings.HasPrefix(err.Error(), "eil: journal: durable: journal poisoned: ") ||
				!strings.HasSuffix(err.Error(), "(writes refused until a checkpoint)") {
				t.Fatalf("write after a failed append = %v, want the poisoned-journal refusal", err)
			}
			if holdsDeal(sys, "DEAL ZC") {
				t.Fatal("the live system serves a refused batch")
			}

			// A crash now, with no checkpoint in between.
			crashed, err := LoadSystem(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !holdsDeal(crashed, "DEAL ZA") {
				t.Fatal("crash lost the acknowledged batch")
			}
			if got, want := holdsDeal(crashed, "DEAL ZB"), site == durable.SiteSync; got != want {
				t.Fatalf("crash recovered the failed batch: %v, want %v", got, want)
			}
			if holdsDeal(crashed, "DEAL ZC") {
				t.Fatal("crash recovered a batch refused after the failed append")
			}

			// A checkpoint re-establishes the journal from memory.
			if _, err := sys.Checkpoint(dir); err != nil {
				t.Fatal(err)
			}
			if err := sys.AddDocuments(newDealDocs(t, "DEAL ZC")); err != nil {
				t.Fatalf("write after the checkpoint: %v", err)
			}
			re, err := LoadSystem(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !holdsDeal(re, "DEAL ZA") || !holdsDeal(re, "DEAL ZC") {
				t.Fatal("reload lost an acknowledged batch")
			}
			if holdsDeal(re, "DEAL ZB") {
				t.Fatal("the checkpoint persisted the batch whose append failed")
			}
			if got, want := queryFingerprint(t, re), queryFingerprint(t, sys); got != want {
				t.Fatalf("reload answers differently:\ngot  %s\nwant %s", got, want)
			}
		})
	}
}
