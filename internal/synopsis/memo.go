package synopsis

// Scoped invalidation of the store's two memos. A memoized Get is a function
// of one deal's rows, a memoized Search of the deals it lists and of those that
// could join it; so a write of deal D removes key D from the Get memo and, from
// the Search memo, the entries that list D or whose criteria the new D
// satisfies. The SQL path recomputes them on their next read; nothing here
// scores.
//
// Readers and writers share no transaction, so a reader may compute from
// half-written tables. It captures gen before its first statement and inserts
// only if gen is unchanged, under memoMu; a writer, after its last statement,
// bumps gen and removes under memoMu. An insert that beat the bump is removed
// by it (a torn answer lists D, or leaves out a D that now matches); one that
// lost is refused.

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/sqlx"
)

// memoEntry is one memoized Search: the query, kept to decide whether a
// written deal joins its answer, and the answer.
type memoEntry struct {
	q    Query
	hits []Hit
}

// MemoDropped reports the memo entries of either kind that writes have
// removed since the store was created.
func (s *Store) MemoDropped() uint64 { return s.dropped.Load() }

// memoize runs put unless a write has landed since the caller read gen.
func (s *Store) memoize(gen uint64, put func()) {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if s.gen.Load() == gen {
		put()
	}
}

// invalidate publishes a finished write of deal id: d is what Put stored,
// nil for a Delete.
func (s *Store) invalidate(id string, d *Deal) {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	s.gen.Add(1)
	n := s.searchMemo.RemoveFunc(func(_ string, e memoEntry) bool {
		return slices.ContainsFunc(e.hits, func(h Hit) bool { return h.DealID == id }) ||
			(d != nil && e.q.Matches(*d))
	})
	if s.getMemo.Remove(id) {
		n++
	}
	s.dropped.Add(uint64(n))
}

// Matches reports whether Search(q) lists d once d is stored, by the
// operators the directed queries use: string equality on the deals columns
// and on one tower row, LIKE on one contact row, membership in RestrictTo.
func (q Query) Matches(d Deal) bool {
	o := d.Overview
	if q.Empty() || (len(q.RestrictTo) > 0 && !slices.Contains(q.RestrictTo, o.DealID)) {
		return false
	}
	for _, c := range [...][2]string{
		{q.Industry, o.Industry}, {q.Consultant, o.Consultant},
		{q.Geography, o.Geography}, {q.Country, o.Country},
	} {
		if c[0] != "" && c[0] != c[1] {
			return false
		}
	}
	if (q.Tower != "" || q.SubTower != "") && !slices.ContainsFunc(d.Towers, func(t TowerScope) bool {
		return (q.Tower == "" || t.Tower == q.Tower) && (q.SubTower == "" || t.SubTower == q.SubTower)
	}) {
		return false
	}
	if (q.PersonName != "" || q.PersonOrg != "") && !slices.ContainsFunc(d.People, func(p Contact) bool {
		return (q.PersonName == "" || sqlx.MatchLike(p.Name, "%"+q.PersonName+"%")) &&
			(q.PersonOrg == "" || sqlx.MatchLike(p.Org, "%"+q.PersonOrg+"%"))
	}) {
		return false
	}
	return true
}

// key encodes a query injectively: eight length-prefixed criteria, then
// RestrictTo the same way.
func (q Query) key() string {
	var b strings.Builder
	for _, v := range append([]string{q.Tower, q.SubTower, q.Industry, q.Consultant,
		q.Geography, q.Country, q.PersonName, q.PersonOrg}, q.RestrictTo...) {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

// cloneHits deep-copies a hit list (MatchedTowers included) so cached entries
// stay isolated from caller mutation.
func cloneHits(hits []Hit) []Hit {
	out := slices.Clone(hits)
	for i := range out {
		out[i].MatchedTowers = slices.Clone(out[i].MatchedTowers)
	}
	return out
}
