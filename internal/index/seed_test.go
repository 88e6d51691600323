package index

// The seed evaluator's own arithmetic and phrase matching, kept verbatim
// beside it (see differential_test.go) now that production resolves the idf
// once per term and matches phrases from their rarest term with one forward
// merge: the oracle must not share the code it checks.

import (
	"math"
	"sort"
)

// bm25 computes the BM25 contribution of a term occurring tf times in a
// field of length fieldLen, given the field's average length and the term's
// document frequency df over n live documents.
func bm25(tf, df, n, fieldLen int, avgLen float64) float64 {
	if tf == 0 || df == 0 || n == 0 {
		return 0
	}
	idf := math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
	norm := float64(fieldLen)
	if avgLen > 0 {
		norm = float64(fieldLen) / avgLen
	}
	tfc := float64(tf) * (bm25K1 + 1) / (float64(tf) + bm25K1*(1-bm25B+bm25B*norm))
	return idf * tfc
}

// countPhrase counts starting positions p in first such that for every
// following term i, p+i+1 is present in rest[i]. Positions are ascending.
func countPhrase(first []uint32, rest [][]uint32) int {
	count := 0
	for _, p := range first {
		if p == keywordPos {
			continue
		}
		ok := true
		for i, positions := range rest {
			want := p + uint32(i) + 1
			if !containsPos(positions, want) {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

func containsPos(positions []uint32, want uint32) bool {
	i := sort.Search(len(positions), func(i int) bool { return positions[i] >= want })
	return i < len(positions) && positions[i] == want
}
