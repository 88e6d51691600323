package eil

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/docmodel"
	"repro/internal/docparse"
	"repro/internal/durable"
)

// upgradeStoreFixture is a store written at commit c2d3a28, the last build
// whose index snapshot was format 1 (gob, in a version-1 container), by
// buildUpgradeSystem: one committed generation and a journal tail on top.
// It must stay as that build wrote it: regenerating it with the current
// code would prove nothing about reading old stores.
const upgradeStoreFixture = "testdata/upgrade-v1-store"

// upgradeDeal is one deal's documents, varied by deal so that the deals
// rank apart.
func upgradeDeal(t *testing.T, deal, client, industry, tower, person string) []*docmodel.Document {
	t.Helper()
	files := []struct{ name, content string }{
		{"overview.txt", fmt.Sprintf("Deal Overview\nCustomer: %s\nIndustry: %s\nTotal Contract Value: over 100M\nScope summary: %s.\n", client, industry, tower)},
		{"scope.deck", fmt.Sprintf("# Services Scope Baseline\n- %s\n- data replication between the primary and recovery data center\n", tower)},
		{"team.grid", fmt.Sprintf("GRID Deal Team Roster\nName | Role | Email | Phone\n%s | CSE | someone@ibm.com |\n", person)},
		{"tsa-1.grid", fmt.Sprintf("GRID %s Service Details\nService Item | cross tower TSA | Notes\n%s item 1 | | pending\n", tower, tower)},
	}
	var docs []*docmodel.Document
	for _, f := range files {
		doc, err := docparse.Parse(deal+"/"+f.name, f.content)
		if err != nil {
			t.Fatal(err)
		}
		doc.DealID = deal
		docs = append(docs, doc)
	}
	return docs
}

// buildUpgradeSystem ingests two deals and, when dir is not empty, commits
// them to dir and journals what follows: a third deal added and the first
// removed. With dir empty it is the never-restarted twin.
func buildUpgradeSystem(t *testing.T, dir string) *System {
	t.Helper()
	docs := append(upgradeDeal(t, "DEAL UP A", "Nova Corp", "Retail", "Network Services", "Anne Smith"),
		upgradeDeal(t, "DEAL UP B", "Orbit Bank", "Banking", "Storage Management Services", "Raj Patel")...)
	sys, err := Ingest(docs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dir != "" {
		if err := sys.EnableWAL(dir, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.AddDocuments(upgradeDeal(t, "DEAL UP C", "Quill Insurance", "Insurance", "End User Services", "Anne Smith")); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveDeal("DEAL UP A"); err != nil {
		t.Fatal(err)
	}
	return sys
}

// copyUpgradeStore copies the fixture into a fresh directory.
func copyUpgradeStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	err := filepath.Walk(upgradeStoreFixture, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(upgradeStoreFixture, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// indexSnapshot returns generation gen's index payload, requiring its
// container to be at version.
func indexSnapshot(t *testing.T, dir string, gen uint64, version uint32) []byte {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("gen-%08d", gen), "index.snap")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fr, err := durable.NewFrameReader(f, path, "component:index", version)
	if err != nil {
		t.Fatalf("generation %d's index is not a version-%d container: %v", gen, version, err)
	}
	data, err := io.ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertUpgradeIdentity requires got to answer the differential queries and
// the durability fingerprint float-identically to want.
func assertUpgradeIdentity(t *testing.T, label string, want, got *System) {
	t.Helper()
	for i, q := range differentialQueries() {
		w, err := want.Search(admin(), q)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Search(admin(), q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("%s/q%d", label, i), w, g)
	}
	if w, g := queryFingerprint(t, want), queryFingerprint(t, got); w != g {
		t.Fatalf("%s: answers diverged:\nwant:\n%s\ngot:\n%s", label, w, g)
	}
	if want.Index.DocCount() != got.Index.DocCount() {
		t.Fatalf("%s: %d vs %d documents", label, want.Index.DocCount(), got.Index.DocCount())
	}
}

// TestLoadSystemUpgradesFormat1Store: a store whose index is format 1, with
// a journal tail on top, recovers float-identical to the never-restarted
// system, and its next checkpoint writes the index in format 2.
func TestLoadSystemUpgradesFormat1Store(t *testing.T) {
	dir := copyUpgradeStore(t)
	if old := indexSnapshot(t, dir, 1, 1); bytes.HasPrefix(old, []byte(indexFormat2Magic)) {
		t.Fatal("the fixture's index is not format 1: it no longer tests the upgrade")
	}
	live := buildUpgradeSystem(t, "")
	if _, err := live.Synopses.Get("DEAL UP C"); err != nil {
		t.Fatalf("the tail's deal is missing: %v", err)
	}
	recovered, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertUpgradeIdentity(t, "format-1 store + journal", live, recovered)

	gen, err := recovered.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap := indexSnapshot(t, dir, gen, durable.ComponentVersion); !bytes.HasPrefix(snap, []byte(indexFormat2Magic)) {
		t.Fatal("the checkpoint after an upgrade did not write format 2")
	}
	again, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertUpgradeIdentity(t, "format-2 checkpoint", live, again)
}

// TestLoadSystemIgnoresContextComponent: stores written before the
// synopsis database was rebuilt on load carry it as context.snap. It is
// never opened, so even a corrupt one does not force a fallback (the
// fixture has no older generation to fall back to), and the next
// checkpoint does not write one.
func TestLoadSystemIgnoresContextComponent(t *testing.T) {
	dir := copyUpgradeStore(t)
	ctx := filepath.Join(dir, "gen-00000001", "context.snap")
	if _, err := os.Stat(ctx); err != nil {
		t.Fatalf("the fixture has no context component: %v", err)
	}
	if err := os.WriteFile(ctx, []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertUpgradeIdentity(t, "store with a corrupt context component", buildUpgradeSystem(t, ""), recovered)
	gen, err := recovered.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("gen-%08d", gen), "context.snap")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint wrote a context component (stat err %v)", err)
	}
}

// indexFormat2Magic opens a format-2 index snapshot.
const indexFormat2Magic = "\x89EILIX\n"
