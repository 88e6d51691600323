package synth

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/directory"
	"repro/internal/docmodel"
	"repro/internal/taxonomy"
)

// stream.go scales generation to the paper's production deployment (~500k
// documents across ~1000 deals) without materializing the corpus: a Stream
// generates one deal's workbook at a time and hands documents out through
// the analysis.CollectionReader interface, so ingest pulls directly from
// the generator and peak memory is one deal's documents, not half a
// million. Ground truth (deal metadata, rosters, the directory) is small
// and is retained for the whole run; the documents and raw text are not.
//
// The stream is byte-identical to Generate under the same Config: both
// drive one rng through the same per-deal sequence, so evaluation harnesses
// can flip between them without changing what the engine sees.

// Stream generates a corpus deal by deal. It implements
// analysis.CollectionReader; Next is not safe for concurrent use (the
// pipeline calls it from one goroutine).
type Stream struct {
	cfg    Config
	c      *Corpus // carries truth, directory, name pool; Docs/Raw cleared per deal
	rng    *rand.Rand
	tax    *taxonomy.Taxonomy
	towers []taxonomy.Tower

	serial     int
	dealIdx    int
	buf        []*docmodel.Document // current deal's docs
	bufPos     int
	emitted    int
	rawEnabled bool
}

// NewStream starts a streaming generation under cfg.
func NewStream(cfg Config) *Stream {
	cfg = cfg.withDefaults()
	tax := taxonomy.Default()
	return &Stream{
		cfg:    cfg,
		c:      &Corpus{Cfg: cfg, Truth: map[string]*DealTruth{}, Directory: directory.New()},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		tax:    tax,
		towers: tax.Towers(),
	}
}

// WithRaw retains each deal's raw file text in Raw() until the next deal is
// generated — for harnesses that materialize documents to disk while
// streaming. Off by default: raw text roughly doubles per-deal memory.
func (s *Stream) WithRaw() *Stream {
	s.rawEnabled = true
	return s
}

// Next implements analysis.CollectionReader: it returns the corpus
// documents in exactly Generate's order and io.EOF after the last deal.
func (s *Stream) Next() (*docmodel.Document, error) {
	for s.bufPos >= len(s.buf) {
		if s.dealIdx >= s.cfg.Deals {
			s.buf = nil
			return nil, io.EOF
		}
		if err := s.generateDeal(); err != nil {
			return nil, err
		}
	}
	d := s.buf[s.bufPos]
	s.buf[s.bufPos] = nil // free as we go; the deal buffer dies at the next deal anyway
	s.bufPos++
	s.emitted++
	return d, nil
}

// generateDeal produces deal s.dealIdx into the buffer, replacing the
// previous deal's documents.
func (s *Stream) generateDeal() error {
	s.c.Docs = nil
	if s.rawEnabled {
		s.c.Raw = map[string]string{}
	}
	nextSerial := func() string {
		s.serial++
		return fmt.Sprintf("%06d", s.serial)
	}
	truth := s.c.makeDealTruth(s.rng, s.tax, s.towers, s.dealIdx, nextSerial)
	s.c.Truth[truth.ID] = truth
	s.c.DealIDs = append(s.c.DealIDs, truth.ID)
	for _, p := range truth.Team {
		if p.Client {
			continue
		}
		active := s.rng.Float64() > 0.06
		if err := s.c.Directory.Add(directory.Person{
			Serial: p.Serial, Name: p.Name, Email: p.Email,
			Phone: p.Phone, Org: p.Org, Title: p.Role, Active: active,
		}); err != nil {
			return fmt.Errorf("synth: directory: %w", err)
		}
	}
	if err := s.c.emitDealDocs(s.rng, s.tax, truth); err != nil {
		return err
	}
	if !s.rawEnabled {
		s.c.Raw = nil
	}
	s.buf = s.c.Docs
	s.bufPos = 0
	s.c.Docs = nil
	s.dealIdx++
	return nil
}

// Directory is the personnel service accumulated so far. It is safe to
// hand to the ingest pipeline mid-stream: directory lookups are
// mutex-guarded, and a deal's people are registered before its documents
// are emitted.
func (s *Stream) Directory() *directory.Directory { return s.c.Directory }

// Truth is the ground truth accumulated so far (complete after EOF).
func (s *Stream) Truth() map[string]*DealTruth { return s.c.Truth }

// DealIDs lists generated deals in order (complete after EOF).
func (s *Stream) DealIDs() []string { return s.c.DealIDs }

// Raw is the current deal's raw file text when WithRaw was set.
func (s *Stream) Raw() map[string]string { return s.c.Raw }

// Emitted reports how many documents Next has returned.
func (s *Stream) Emitted() int { return s.emitted }
