package synopsis

import (
	"fmt"
	"math"
	"sort"
)

// SimilarHit is one deal ranked by similarity to a reference deal.
type SimilarHit struct {
	DealID string
	// Score in (0, 1]: cosine similarity of tower-significance vectors,
	// boosted by shared industry and consultant.
	Score float64
	// SharedTowers are the towers the two deals have in common, reference
	// significance order.
	SharedTowers []string
}

// SimilarTo finds up to k of this store's deals most similar to a
// reference deal that need not live in the store — a cluster fetches the
// reference from its owning shard and asks every shard. Similarity follows
// how the sales community thinks about "a similar situation" (§2): the same
// services mix first (cosine over tower significance), same industry and
// sourcing advisor as tie-strengtheners. Deals with no tower overlap are
// omitted, and so are deals visible rejects (nil admits every deal) — before
// the ranking is cut to k, so a hidden deal never takes a visible one's
// place.
func (s *Store) SimilarTo(ref Deal, k int, visible func(dealID string) bool) ([]SimilarHit, error) {
	if k <= 0 {
		k = 5
	}
	refVec := towerVector(ref)
	if len(refVec) == 0 {
		return nil, fmt.Errorf("synopsis: %s has no scope towers to compare", ref.Overview.DealID)
	}
	ids, err := s.DealIDs()
	if err != nil {
		return nil, err
	}
	var hits []SimilarHit
	for _, id := range ids {
		if id == ref.Overview.DealID || (visible != nil && !visible(id)) {
			continue
		}
		other, err := s.Get(id)
		if err != nil {
			return nil, err
		}
		vec := towerVector(other)
		cos := cosine(refVec, vec)
		if cos <= 0 {
			continue
		}
		score := cos
		if ref.Overview.Industry != "" && ref.Overview.Industry == other.Overview.Industry {
			score += 0.10
		}
		if ref.Overview.Consultant != "" && ref.Overview.Consultant == other.Overview.Consultant {
			score += 0.05
		}
		if score > 1 {
			score = 1
		}
		hit := SimilarHit{DealID: id, Score: score}
		for _, tw := range ref.Towers {
			if tw.SubTower != "" {
				continue
			}
			if _, ok := vec[tw.Tower]; ok {
				hit.SharedTowers = append(hit.SharedTowers, tw.Tower)
			}
		}
		hits = append(hits, hit)
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].DealID < hits[j].DealID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits, nil
}

// towerVector maps tower -> significance for the deal's top-level towers.
func towerVector(d Deal) map[string]float64 {
	vec := map[string]float64{}
	for _, tw := range d.Towers {
		if tw.SubTower == "" {
			vec[tw.Tower] = tw.Significance
		}
	}
	return vec
}

// cosine accumulates in sorted key order: float addition is not
// associative, and map iteration order would otherwise make scores differ
// in the last ulp between runs (and between the monolithic and sharded
// engines, whose differential tests compare scores exactly).
func cosine(a, b map[string]float64) float64 {
	var dot, na, nb float64
	for _, k := range sortedKeys(a) {
		va := a[k]
		na += va * va
		if vb, ok := b[k]; ok {
			dot += va * vb
		}
	}
	for _, k := range sortedKeys(b) {
		nb += b[k] * b[k]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
