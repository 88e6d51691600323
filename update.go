package eil

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/docmodel"
	"repro/internal/index"
	"repro/internal/synopsis"
	"repro/internal/trace"
)

// DealNotFoundError is RemoveDeal's refusal of a deal the state does not
// hold: no indexed document, no synopsis and no accumulated analysis state.
// Nothing is journaled for it.
type DealNotFoundError struct{ DealID string }

func (e *DealNotFoundError) Error() string {
	return fmt.Sprintf("eil: remove %q: no such deal", e.DealID)
}

// AddDocuments incrementally ingests new documents into a live system: each
// document is analyzed, indexed, and folded into its business activity's
// accumulated state; affected synopses are rebuilt. This is the continuous-
// rollout path — the paper's production system keeps incorporating new
// engagement documents ("more than half a million documents from almost
// 1000 engagements have been incorporated"). Systems restored from disk
// accept it exactly like live ones: LoadSystem rebuilds the pipeline state.
//
// The batch commits as every write does (writeLocked): it is staged first
// (every document analyzed and the record encoded, outside the update
// lock), then validated (an empty or duplicate path refuses the batch),
// then journaled as one record when a journal is attached (EnableWAL), and
// only then applied. A failure before the apply leaves the system
// untouched.
func (s *System) AddDocuments(docs []*docmodel.Document) error {
	if len(docs) == 0 {
		return nil
	}
	cases, err := s.analyze(docs)
	if err != nil {
		return fmt.Errorf("eil: update %w (batch not applied)", err)
	}
	payload, err := encodeDocs(docs)
	if err != nil {
		return err
	}
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if err := s.writeGuardLocked(); err != nil {
		return err
	}
	// Validate: an empty path, or a duplicate one (already indexed, or
	// repeated within the batch), is the one way the index refuses a
	// document, so refusing it here leaves the apply nothing to fail on.
	seen := make(map[string]bool, len(docs))
	for i, doc := range docs {
		if doc.Path == "" {
			return fmt.Errorf("eil: update: document %d has an empty path (batch not applied)", i)
		}
		if _, dup := s.Index.Lookup(doc.Path); dup || seen[doc.Path] {
			return fmt.Errorf("eil: update %s: %w (batch not applied)", doc.Path, index.ErrDuplicate)
		}
		seen[doc.Path] = true
	}
	return s.writeLocked(walOpAddDocuments, payload, cases)
}

// analyze stages a batch: every document through the annotator flow. It is
// side-effect free, so the live writer runs it before taking upMu, and
// replay and a follower run it on a decoded record.
func (s *System) analyze(docs []*docmodel.Document) ([]*analysis.CAS, error) {
	cases := make([]*analysis.CAS, len(docs))
	for i, doc := range docs {
		cases[i] = analysis.NewCAS(doc)
		if err := s.flow.Process(cases[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", doc.Path, err)
		}
	}
	return cases, nil
}

// applyDocsLocked folds an analyzed batch into the index (as one batch —
// the flush either merges everything or nothing), then into the per-deal
// accumulation state, and returns the deals it touched in first-seen order.
func (s *System) applyDocsLocked(cases []*analysis.CAS) ([]string, error) {
	for _, cas := range cases {
		if err := s.writer.Consume(cas); err != nil {
			return nil, fmt.Errorf("index %s: %w", cas.Doc.Path, err)
		}
	}
	// The IndexWriter batches; push the buffered batch into the index
	// before callers search.
	if err := s.writer.Flush(); err != nil {
		return nil, err
	}
	var affected []string
	affectedSet := map[string]bool{}
	for _, cas := range cases {
		_ = s.builder.Consume(cas) // it returns nil on every path
		if id := cas.Doc.DealID; id != "" && !affectedSet[id] {
			affectedSet[id] = true
			affected = append(affected, id)
		}
	}
	return affected, nil
}

// publishDeals writes the synopses of the deals an applied operation
// touched, so that reads between operations see them: a deal the analysis
// state holds is finalized and Put, one it no longer holds is deleted. On a
// failure it names the deal it stopped at.
func (s *System) publishDeals(dealIDs []string) (failed string, err error) {
	if len(dealIDs) == 0 {
		return "", nil
	}
	route := "update.synopses"
	if len(dealIDs) == 1 && !s.builder.Has(dealIDs[0]) {
		route = "update.remove"
	}
	err = s.synopsisWrite(route, len(dealIDs), func() error {
		for _, id := range dealIDs {
			var err error
			if s.builder.Has(id) {
				err = s.builder.PutDeal(id)
			} else {
				err = s.Synopses.Delete(id)
			}
			if err != nil {
				failed = id
				return err
			}
		}
		return nil
	})
	return failed, err
}

// synopsisWrite runs one write to the synopsis store (a batch's rebuilds of
// deal synopses, or one removal) and makes what it cost the store's memos
// observable: the entries it removed go to synopsis_memo_dropped_total and,
// as memo_dropped, onto a trace of the write, so a low synopsis_cache hit
// ratio has one place to look. The trace follows the tracer's sampling.
func (s *System) synopsisWrite(route string, deals int, write func() error) error {
	ctx, tr := s.Tracer.Start(context.Background(), route, trace.StartOptions{})
	before := s.Synopses.MemoDropped()
	err := write()
	dropped := int64(s.Synopses.MemoDropped() - before)
	s.Metrics.Counter("synopsis_memo_dropped_total").Add(dropped)
	root := trace.FromContext(ctx)
	root.SetInt("deals", deals)
	root.SetInt("memo_dropped", int(dropped))
	if err != nil {
		root.Set("error", err.Error())
	}
	tr.Finish()
	return err
}

// Compact rebuilds the semantic index without the tombstones that
// RemoveDeal and document deletions leave behind, and atomically swaps it
// into the live system. Queries issued concurrently with Compact see either
// the old or the new index, both of which answer identically — the swap is
// an atomic-pointer publish on the search path, so no search ever observes
// a torn mix of old and new backends. Like every mutation it is refused
// on a fenced node and journaled before it is applied.
func (s *System) Compact() error {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if err := s.writeGuardLocked(); err != nil {
		return err
	}
	return s.writeLocked(walOpCompact, nil, nil)
}

// RemoveDeal withdraws an entire business activity: its documents leave the
// index, its synopsis is deleted, and its accumulated analysis state is
// dropped, so a later AddDocuments for the same ID starts clean. A deal the
// state does not hold is refused with a *DealNotFoundError. With a journal
// attached, the removal is journaled before it is applied.
func (s *System) RemoveDeal(dealID string) error {
	if dealID == "" {
		return errors.New("eil: empty deal id")
	}
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if err := s.writeGuardLocked(); err != nil {
		return err
	}
	held, err := s.holdsLocked(dealID)
	if err != nil {
		return err
	}
	if !held {
		return &DealNotFoundError{DealID: dealID}
	}
	return s.writeLocked(walOpRemoveDeal, []byte(dealID), nil)
}

// holdsLocked reports whether the state holds anything of the deal, cheapest
// check first: analysis state, then a synopsis, then an indexed document.
// Callers hold upMu.
func (s *System) holdsLocked(dealID string) (bool, error) {
	if s.builder != nil && s.builder.Has(dealID) {
		return true, nil
	}
	if _, err := s.Synopses.Get(dealID); err == nil {
		return true, nil
	} else if !errors.Is(err, synopsis.ErrNotFound) {
		return false, fmt.Errorf("eil: remove %s: %w", dealID, err)
	}
	return len(s.Index.ExtIDsByMeta("deal", dealID)) > 0, nil
}

// applyRemoveDeal takes the deal out of the index and the analysis state
// and leaves its synopsis to the caller (applyLocked's). Replay accepts a
// removal of an absent deal, which journals written before RemoveDeal
// refused one may hold, as a no-op.
func (s *System) applyRemoveDeal(dealID string) error {
	for _, path := range s.Index.ExtIDsByMeta("deal", dealID) {
		if err := s.Index.Delete(path); err != nil {
			return fmt.Errorf("eil: remove %s: %w", path, err)
		}
	}
	s.builder.DropDeal(dealID)
	return nil
}
