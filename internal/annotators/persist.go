package annotators

import (
	"errors"
	"fmt"
	"sort"
)

// Builder accumulation state as exported, gob-friendly snapshot types. The
// durability layer persists this alongside the index, and it is what a
// restored system's synopsis store is rebuilt from (RestoreState, then the
// journal tail's documents and removals, then End): the store itself is not
// persisted. So the CPE's roll-up state survives a restart, and the restored
// system keeps accumulating documents into existing deals instead of
// resetting them.

// ScopeState is a persisted scopeAgg: summed mention weight and the set of
// contributing documents.
type ScopeState struct {
	Weight float64
	Docs   []string
}

// SubScopeState is one (tower, sub-tower) aggregation. Persisted as a slice
// rather than an array-keyed map to keep the wire format simple and ordered.
type SubScopeState struct {
	Tower    string
	SubTower string
	Weight   float64
	Docs     []string
}

// ContactState is a persisted contactSketch.
type ContactState struct {
	Fields map[string]string
	Conf   map[string]float64
	Best   float64
}

// FactState is a persisted factVote.
type FactState struct {
	Value string
	Conf  float64
}

// DealState is one deal's accumulated annotations.
type DealState struct {
	ID         string
	Repository string
	Towers     map[string]ScopeState
	SubTowers  []SubScopeState
	Contacts   map[string]ContactState
	Facts      map[string]FactState
	Strategies map[string]float64
	Refs       map[string]float64
	Tech       map[string]map[string]float64
}

// BuilderState is the full persistable accumulation state of a Builder, with
// deals in first-seen order (the order End() finalizes them in).
type BuilderState struct {
	MinScopeWeight float64
	DropInactive   bool
	Deals          []DealState
}

// State snapshots the builder's accumulation state. The snapshot is
// deterministic (sorted doc sets, ordered sub-tower slices) and deep-copied:
// mutating the builder afterwards does not alter it.
func (b *Builder) State() *BuilderState {
	st := &BuilderState{
		MinScopeWeight: b.MinScopeWeight,
		DropInactive:   b.DropInactive,
		Deals:          make([]DealState, 0, len(b.order)),
	}
	for _, dealID := range b.order {
		acc := b.deals[dealID]
		if acc == nil {
			continue
		}
		d := DealState{
			ID:         dealID,
			Repository: acc.repository,
			Towers:     make(map[string]ScopeState, len(acc.towers)),
			Contacts:   make(map[string]ContactState, len(acc.contacts)),
			Facts:      make(map[string]FactState, len(acc.facts)),
			Strategies: copyFloats(acc.strategies),
			Refs:       copyFloats(acc.refs),
			Tech:       make(map[string]map[string]float64, len(acc.tech)),
		}
		for tower, agg := range acc.towers {
			d.Towers[tower] = ScopeState{Weight: agg.weight, Docs: sortedKeys(agg.docs)}
		}
		for key, agg := range acc.subTowers {
			d.SubTowers = append(d.SubTowers, SubScopeState{
				Tower:    key[0],
				SubTower: key[1],
				Weight:   agg.weight,
				Docs:     sortedKeys(agg.docs),
			})
		}
		sort.Slice(d.SubTowers, func(i, j int) bool {
			if d.SubTowers[i].Tower != d.SubTowers[j].Tower {
				return d.SubTowers[i].Tower < d.SubTowers[j].Tower
			}
			return d.SubTowers[i].SubTower < d.SubTowers[j].SubTower
		})
		for key, sk := range acc.contacts {
			d.Contacts[key] = ContactState{
				Fields: copyStrings(sk.fields),
				Conf:   copyFloats(sk.conf),
				Best:   sk.best,
			}
		}
		for key, v := range acc.facts {
			d.Facts[key] = FactState{Value: v.value, Conf: v.conf}
		}
		for tower, texts := range acc.tech {
			d.Tech[tower] = copyFloats(texts)
		}
		st.Deals = append(st.Deals, d)
	}
	return st
}

// RestoreState replaces the builder's accumulation state with a snapshot
// previously taken by State. Configuration knobs (MinScopeWeight,
// DropInactive) are restored too, so a reloaded system finalizes deals the
// same way the original did. A snapshot End could not load — a deal with an
// empty ID, or an ID listed twice — is refused and leaves the builder as it
// was.
func (b *Builder) RestoreState(st *BuilderState) error {
	seen := make(map[string]bool, len(st.Deals))
	for _, d := range st.Deals {
		if d.ID == "" {
			return errors.New("annotators: restore: deal with empty id")
		}
		if seen[d.ID] {
			return fmt.Errorf("annotators: restore: deal %s listed twice", d.ID)
		}
		seen[d.ID] = true
	}
	b.MinScopeWeight = st.MinScopeWeight
	b.DropInactive = st.DropInactive
	b.deals = make(map[string]*dealAcc, len(st.Deals))
	b.order = make([]string, 0, len(st.Deals))
	for _, d := range st.Deals {
		acc := newDealAcc()
		acc.repository = d.Repository
		for tower, s := range d.Towers {
			acc.towers[tower] = &scopeAgg{weight: s.Weight, docs: docSet(s.Docs)}
		}
		for _, s := range d.SubTowers {
			acc.subTowers[[2]string{s.Tower, s.SubTower}] = &scopeAgg{weight: s.Weight, docs: docSet(s.Docs)}
		}
		for key, c := range d.Contacts {
			acc.contacts[key] = &contactSketch{
				fields: copyStrings(c.Fields),
				conf:   copyFloats(c.Conf),
				best:   c.Best,
			}
		}
		for key, f := range d.Facts {
			acc.facts[key] = factVote{value: f.Value, conf: f.Conf}
		}
		for key, v := range d.Strategies {
			acc.strategies[key] = v
		}
		for key, v := range d.Refs {
			acc.refs[key] = v
		}
		for tower, texts := range d.Tech {
			acc.tech[tower] = copyFloats(texts)
		}
		b.deals[d.ID] = acc
		b.order = append(b.order, d.ID)
	}
	return nil
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func docSet(docs []string) map[string]bool {
	set := make(map[string]bool, len(docs))
	for _, d := range docs {
		set[d] = true
	}
	return set
}

func copyStrings(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyFloats(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
