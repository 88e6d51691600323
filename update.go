package eil

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/docmodel"
	"repro/internal/index"
	"repro/internal/synopsis"
	"repro/internal/trace"
)

// PartialBatchError reports an AddDocuments batch that could not be applied
// atomically: the apply phase failed after some documents were already
// folded into the live system. Applied names exactly the document paths
// that took effect (and that the journal records, so a restart converges on
// the same state). Failed names where the batch stopped: the document the
// analysis state refused, or, when every document was applied and the
// synopsis publish failed, the deal whose synopsis write failed.
//
// Staging makes this rare: analysis and validation failures — the common
// ways a batch dies — abort before anything is applied and return ordinary
// errors, not a PartialBatchError.
type PartialBatchError struct {
	Applied []string // paths applied before the failure, in batch order
	Failed  string   // document path or deal ID the batch stopped at
	Err     error    // the underlying failure
}

func (e *PartialBatchError) Error() string {
	return fmt.Sprintf("eil: partial batch: %d of batch applied (%s), failed at %s: %v",
		len(e.Applied), strings.Join(e.Applied, ", "), e.Failed, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *PartialBatchError) Unwrap() error { return e.Err }

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
// The batch is staged before it is applied: every document is analyzed and
// validated (duplicate paths rejected) first, so analysis failures abort
// cleanly with nothing applied. An apply-phase failure after the index
// batch landed surfaces as a *PartialBatchError naming the applied prefix.
// With a journal attached (EnableWAL), the applied batch is recorded as one
// fsynced record before AddDocuments returns.
func (s *System) AddDocuments(docs []*docmodel.Document) error {
	if len(docs) == 0 {
		return nil
	}
	// Stage: analyze every document before touching any system state.
	// Analysis is the failure-prone phase (parsers, annotators) and is
	// side-effect free, so running it first makes its failures atomic.
	cases := make([]*analysis.CAS, len(docs))
	for i, doc := range docs {
		cas := analysis.NewCAS(doc)
		if err := s.flow.Process(cas); err != nil {
			return fmt.Errorf("eil: update %s: %w (batch not applied)", doc.Path, err)
		}
		cases[i] = cas
	}
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if err := s.writeGuardLocked(); err != nil {
		return err
	}
	// Validate: an empty path, or a duplicate one (already indexed, or
	// repeated within the batch), fails the whole batch before anything is
	// applied, instead of surfacing from an index flush after earlier
	// flushes of the batch landed.
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
	affected, err := s.applyStagedLocked(docs, cases)
	if err == nil {
		if failed, perr := s.publishDeals(affected); perr != nil {
			err = &PartialBatchError{Applied: docPaths(docs), Failed: failed, Err: fmt.Errorf("synopsis rebuild: %w", perr)}
		}
	}
	if err != nil {
		var pbe *PartialBatchError
		if errors.As(err, &pbe) && len(pbe.Applied) > 0 {
			// Journal the prefix that did take effect, so a restart
			// converges on the state the caller was just told about.
			if payload, jerr := encodeDocs(docs[:len(pbe.Applied)]); jerr == nil {
				_ = s.journalLocked(walOpAddDocuments, payload)
			}
		}
		return err
	}
	payload, err := encodeDocs(docs)
	if err != nil {
		return err
	}
	return s.journalLocked(walOpAddDocuments, payload)
}

func docPaths(docs []*docmodel.Document) []string {
	paths := make([]string, len(docs))
	for i, doc := range docs {
		paths[i] = doc.Path
	}
	return paths
}

// applyAddDocuments is the replay-path AddDocuments: same staging and
// application, no journaling (the record being replayed already exists).
// It returns the deals the batch touched, for the caller to publish.
func (s *System) applyAddDocuments(docs []*docmodel.Document) ([]string, error) {
	cases := make([]*analysis.CAS, len(docs))
	for i, doc := range docs {
		cas := analysis.NewCAS(doc)
		if err := s.flow.Process(cas); err != nil {
			return nil, fmt.Errorf("analyze %s: %w", doc.Path, err)
		}
		cases[i] = cas
	}
	return s.applyStagedLocked(docs, cases)
}

// applyStagedLocked folds a fully staged batch into the index (as one batch
// — the flush either merges everything or nothing), then into the per-deal
// accumulation state, and returns the deals it touched in first-seen order.
// It writes no synopsis: a caller that serves reads between operations
// publishes the touched deals (publishDeals); replay leaves them to the one
// build after the last record. Callers hold upMu (or own the system
// exclusively during replay).
func (s *System) applyStagedLocked(docs []*docmodel.Document, cases []*analysis.CAS) ([]string, error) {
	for i, cas := range cases {
		if err := s.writer.Consume(cas); err != nil {
			// Consume flushes every full index batch (256 documents), and
			// only a failed flush fails it: that flush's documents are
			// discarded, but earlier flushes of this batch stay indexed.
			// AddDocuments refuses every path the index would refuse
			// before it gets here.
			return nil, fmt.Errorf("eil: update %s: %w (batch not applied)", docs[i].Path, err)
		}
	}
	// The IndexWriter batches; push the buffered batch into the index
	// before callers search.
	if err := s.writer.Flush(); err != nil {
		return nil, fmt.Errorf("eil: update flush: %w (batch not applied)", err)
	}
	var affected []string
	affectedSet := map[string]bool{}
	applied := make([]string, 0, len(docs))
	for i, cas := range cases {
		if err := s.builder.Consume(cas); err != nil {
			return nil, &PartialBatchError{Applied: applied, Failed: docs[i].Path, Err: err}
		}
		applied = append(applied, docs[i].Path)
		if id := docs[i].DealID; id != "" && !affectedSet[id] {
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
// on a fenced node and journaled before it returns.
func (s *System) Compact() error {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if err := s.writeGuardLocked(); err != nil {
		return err
	}
	s.applyCompact()
	return s.journalLocked(walOpCompact, nil)
}

// applyCompact is the body of Compact, shared with journal replay; callers
// hold upMu (or own the system exclusively during replay).
func (s *System) applyCompact() {
	s.publish(s.Index.Compact())
}

// RemoveDeal withdraws an entire business activity: its documents leave the
// index, its synopsis is deleted, and its accumulated analysis state is
// dropped, so a later AddDocuments for the same ID starts clean. A deal the
// state does not hold is refused with a *DealNotFoundError. With a journal
// attached, the removal is recorded before RemoveDeal returns.
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
	if err := s.applyRemoveDeal(dealID); err != nil {
		return err
	}
	if _, err := s.publishDeals([]string{dealID}); err != nil {
		return fmt.Errorf("eil: remove synopsis %s: %w", dealID, err)
	}
	return s.journalLocked(walOpRemoveDeal, []byte(dealID))
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

// applyRemoveDeal is the body of RemoveDeal, shared with journal replay: it
// takes the deal out of the index and the analysis state and leaves its
// synopsis to the caller (publishDeals, or replay's one build after the last
// record). Callers hold upMu (or own the system exclusively during replay).
// Replay accepts a removal of an absent deal, which journals written before
// RemoveDeal refused one may hold, as a no-op.
func (s *System) applyRemoveDeal(dealID string) error {
	for _, path := range s.Index.ExtIDsByMeta("deal", dealID) {
		if err := s.Index.Delete(path); err != nil {
			return fmt.Errorf("eil: remove %s: %w", path, err)
		}
	}
	s.builder.DropDeal(dealID)
	return nil
}
