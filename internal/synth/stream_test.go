package synth

import (
	"io"
	"testing"
)

// The stream must reproduce Generate byte for byte under the same config:
// same documents in the same order, same ground truth, same directory.
func TestStreamMatchesGenerate(t *testing.T) {
	cfg := SmallConfig()
	corpus, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(cfg)
	for i, want := range corpus.Docs {
		got, err := s.Next()
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if got.Path != want.Path || got.DealID != want.DealID || got.Body != want.Body {
			t.Fatalf("doc %d diverged: got %s want %s", i, got.Path, want.Path)
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("after last doc: err = %v, want io.EOF", err)
	}
	if s.Emitted() != len(corpus.Docs) {
		t.Errorf("emitted %d, corpus has %d", s.Emitted(), len(corpus.Docs))
	}
	if len(s.DealIDs()) != len(corpus.DealIDs) {
		t.Fatalf("deal ids %d vs %d", len(s.DealIDs()), len(corpus.DealIDs))
	}
	for i := range corpus.DealIDs {
		if s.DealIDs()[i] != corpus.DealIDs[i] {
			t.Errorf("deal %d: %s vs %s", i, s.DealIDs()[i], corpus.DealIDs[i])
		}
	}
	for id, want := range corpus.Truth {
		got := s.Truth()[id]
		if got == nil {
			t.Fatalf("truth missing deal %s", id)
		}
		if got.Customer != want.Customer || len(got.Team) != len(want.Team) || len(got.Towers) != len(want.Towers) {
			t.Errorf("truth diverged for %s", id)
		}
	}
	// Directory parity via a planted lookup: every IBM-side person from
	// Generate must resolve in the stream's directory.
	for _, truth := range corpus.Truth {
		for _, p := range truth.Team {
			if p.Client {
				continue
			}
			if _, err := s.Directory().BySerial(p.Serial); err != nil {
				t.Fatalf("directory missing %s (%s): %v", p.Name, p.Serial, err)
			}
		}
	}
}

// Raw text is only retained on request, and only for the current deal.
func TestStreamRawRetention(t *testing.T) {
	cfg := SmallConfig()
	s := NewStream(cfg)
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if s.Raw() != nil {
		t.Fatal("raw retained without WithRaw")
	}
	sr := NewStream(cfg).WithRaw()
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if len(sr.Raw()) == 0 {
		t.Fatal("WithRaw stream retained no raw text")
	}
	firstDealRaw := len(sr.Raw())
	// Drain into the second deal; the first deal's raw entries are gone.
	seen := map[string]bool{}
	for {
		d, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen[d.DealID] = true
		if len(seen) == 2 {
			break
		}
	}
	if len(seen) != 2 {
		t.Skip("corpus has a single deal")
	}
	if len(sr.Raw()) >= firstDealRaw+10 {
		t.Errorf("raw map grew across deals: %d entries", len(sr.Raw()))
	}
}
