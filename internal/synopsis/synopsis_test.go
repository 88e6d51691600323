package synopsis

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/relstore"
)

func sampleDeal(id string) Deal {
	return Deal{
		Overview: Overview{
			DealID: id, Customer: "Cygnus Insurance", Industry: "Insurance",
			Consultant: "TPI", Geography: "Americas", Country: "United States",
			TermStart: "2006-01-05", TermMonths: 60, TCVBand: "50 to 100M",
			International: true, Repository: "repo/" + id,
		},
		Towers: []TowerScope{
			{Tower: "End User Services", SubTower: "Customer Service Center", Significance: 0.9},
			{Tower: "Disaster Recovery Services", Significance: 0.4},
		},
		People: []Contact{
			{Name: "Sam White", Email: "sam.white@abc.com", Org: "ABC Corp", Role: "CIO", Category: "client team", Validated: true},
			{Name: "Jo Park", Email: "jo.park@ibm.com", Role: "CSE", Category: "core deal team", Validated: true},
		},
		WinStrategies: []string{"Price to win", "Incumbent displacement"},
		ClientRefs:    []string{"Reference: Borealis rollout 2005"},
		TechSolutions: map[string]string{"End User Services": "Consolidated help desk with follow-the-sun staffing."},
	}
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(relstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newStore(t)
	want := sampleDeal("DEAL C")
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("DEAL C")
	if err != nil {
		t.Fatal(err)
	}
	if got.Overview != want.Overview {
		t.Fatalf("overview = %+v, want %+v", got.Overview, want.Overview)
	}
	if len(got.Towers) != 2 || got.Towers[0].Tower != "End User Services" {
		t.Fatalf("towers = %+v (must be significance-ordered)", got.Towers)
	}
	if len(got.People) != 2 {
		t.Fatalf("people = %+v", got.People)
	}
	if len(got.WinStrategies) != 2 || len(got.ClientRefs) != 1 {
		t.Fatalf("strategies/refs = %v / %v", got.WinStrategies, got.ClientRefs)
	}
	if got.TechSolutions["End User Services"] == "" {
		t.Fatalf("solutions = %v", got.TechSolutions)
	}
}

func TestPutReplaces(t *testing.T) {
	s := newStore(t)
	d := sampleDeal("DEAL C")
	if err := s.Put(d); err != nil {
		t.Fatal(err)
	}
	d.People = d.People[:1]
	d.Overview.Customer = "Renamed"
	if err := s.Put(d); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("DEAL C")
	if err != nil {
		t.Fatal(err)
	}
	if got.Overview.Customer != "Renamed" || len(got.People) != 1 {
		t.Fatalf("replace failed: %+v", got)
	}
}

func TestPutRefusedLeavesNoPartialDeal(t *testing.T) {
	// A unique index on contact names refuses the second deal's first
	// contact after its deal and tower rows were inserted; the refused Put
	// must leave that deal absent, not torn.
	s := newStore(t)
	if err := s.Put(sampleDeal("DEAL X1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Conn().DB().CreateIndex("contacts_unique_name", "contacts", []string{"name"}, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(sampleDeal("DEAL X2")); !errors.Is(err, relstore.ErrDuplicateKey) {
		t.Fatalf("Put(DEAL X2) = %v, want a duplicate-key refusal", err)
	}
	if d, err := s.Get("DEAL X2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(DEAL X2) = %+v, %v; want ErrNotFound", d, err)
	}
	for _, table := range []string{"deal_towers", "contacts", "win_strategies", "client_refs", "tech_solutions"} {
		rows, err := s.Conn().Query("SELECT deal_id FROM "+table+" WHERE deal_id = ?", "DEAL X2")
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() != 0 {
			t.Fatalf("%s holds %d rows of the refused deal", table, rows.Len())
		}
	}
	if ids, err := s.DealIDs(); err != nil || len(ids) != 1 || ids[0] != "DEAL X1" {
		t.Fatalf("DealIDs = %v, %v; want [DEAL X1]", ids, err)
	}
}

func TestPutEmptyID(t *testing.T) {
	s := newStore(t)
	if err := s.Put(Deal{}); err == nil {
		t.Fatal("empty deal accepted")
	}
}

// TestLoadRefusesHeldStore: Load fills an empty store, refuses one that holds
// a deal (its rows would be duplicated, not replaced), and removes the memo
// entries the loaded deals join, as Put does.
func TestLoadRefusesHeldStore(t *testing.T) {
	s := newStore(t)
	q := Query{Tower: "End User Services"}
	if hits, err := s.Search(q); err != nil || len(hits) != 0 {
		t.Fatalf("empty store: %v, %v", hits, err)
	}
	if err := s.Load([]Deal{sampleDeal("DEAL A"), sampleDeal("DEAL B")}); err != nil {
		t.Fatal(err)
	}
	if hits, err := s.Search(q); err != nil || len(hits) != 2 {
		t.Fatalf("after Load the memoized empty answer survived: %v, %v", hits, err)
	}
	if err := s.Load([]Deal{sampleDeal("DEAL C")}); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Load into a held store: %v, want ErrNotEmpty", err)
	}
	if err := newStore(t).Load([]Deal{sampleDeal("DEAL A"), {}}); err == nil {
		t.Fatal("empty deal id loaded")
	}
	if ids, err := s.DealIDs(); err != nil || len(ids) != 2 {
		t.Fatalf("deals = %v, %v", ids, err)
	}
}

func TestGetMissing(t *testing.T) {
	s := newStore(t)
	if _, err := s.Get("NOPE"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDealIDs(t *testing.T) {
	s := newStore(t)
	for _, id := range []string{"DEAL B", "DEAL A", "DEAL C"} {
		if err := s.Put(sampleDeal(id)); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := s.DealIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != "DEAL A" || ids[2] != "DEAL C" {
		t.Fatalf("ids = %v", ids)
	}
}

func multiStore(t *testing.T) *Store {
	t.Helper()
	s := newStore(t)
	a := sampleDeal("DEAL A")
	a.Towers = []TowerScope{
		{Tower: "Storage Management Services", Significance: 0.8},
		{Tower: "End User Services", SubTower: "Customer Service Center", Significance: 0.3},
	}
	a.Overview.Industry = "Banking"
	a.People = []Contact{{Name: "Lee Chan", Org: "ITD", Role: "TSA", Category: "delivery team"}}

	b := sampleDeal("DEAL B")
	b.Towers = []TowerScope{{Tower: "Network Services", Significance: 0.9}}
	b.Overview.Industry = "Insurance"
	b.Overview.Consultant = "Gartner"
	b.People = []Contact{{Name: "Ana Ruiz", Org: "ITD", Role: "PE", Category: "core deal team"}}

	c := sampleDeal("DEAL C") // EUS-heavy, Insurance, TPI, Sam White
	for _, d := range []Deal{a, b, c} {
		if err := s.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSearchByTower(t *testing.T) {
	s := multiStore(t)
	hits, err := s.Search(Query{Tower: "End User Services"})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %+v", hits)
	}
	// DEAL C's EUS significance (0.9) beats DEAL A's (0.3).
	if hits[0].DealID != "DEAL C" || hits[1].DealID != "DEAL A" {
		t.Fatalf("order = %+v", hits)
	}
	if len(hits[0].MatchedTowers) == 0 {
		t.Fatalf("matched towers empty: %+v", hits[0])
	}
}

func TestSearchBySubTower(t *testing.T) {
	s := multiStore(t)
	hits, err := s.Search(Query{SubTower: "Customer Service Center"})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %+v", hits)
	}
}

func TestSearchConjunction(t *testing.T) {
	s := multiStore(t)
	hits, err := s.Search(Query{Tower: "End User Services", Industry: "Insurance"})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].DealID != "DEAL C" {
		t.Fatalf("hits = %+v", hits)
	}
	// An impossible conjunction returns nothing.
	hits, err = s.Search(Query{Tower: "Network Services", Industry: "Banking"})
	if err != nil || len(hits) != 0 {
		t.Fatalf("hits = %+v, %v", hits, err)
	}
}

func TestSearchByPerson(t *testing.T) {
	s := multiStore(t)
	hits, err := s.Search(Query{PersonName: "sam white"})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].DealID != "DEAL C" {
		t.Fatalf("hits = %+v", hits)
	}
	hits, err = s.Search(Query{PersonName: "White", PersonOrg: "ABC"})
	if err != nil || len(hits) != 1 {
		t.Fatalf("partial name+org: %+v, %v", hits, err)
	}
}

func TestSearchByConsultant(t *testing.T) {
	s := multiStore(t)
	hits, err := s.Search(Query{Consultant: "Gartner"})
	if err != nil || len(hits) != 1 || hits[0].DealID != "DEAL B" {
		t.Fatalf("hits = %+v, %v", hits, err)
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	s := multiStore(t)
	hits, err := s.Search(Query{})
	if err != nil || hits != nil {
		t.Fatalf("empty query: %+v, %v", hits, err)
	}
	if !(Query{}).Empty() {
		t.Fatal("Empty() broken")
	}
	if (Query{Tower: "x"}).Empty() {
		t.Fatal("Empty() with tower broken")
	}
}

func TestSearchRestrictTo(t *testing.T) {
	s := multiStore(t)
	hits, err := s.Search(Query{Tower: "End User Services", RestrictTo: []string{"DEAL A"}})
	if err != nil || len(hits) != 1 || hits[0].DealID != "DEAL A" {
		t.Fatalf("hits = %+v, %v", hits, err)
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	s := newStore(t)
	for _, id := range []string{"DEAL Z", "DEAL Y"} {
		d := sampleDeal(id)
		d.Towers = []TowerScope{{Tower: "Network Services", Significance: 0.5}}
		if err := s.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	hits, err := s.Search(Query{Tower: "Network Services"})
	if err != nil || len(hits) != 2 || hits[0].DealID != "DEAL Y" {
		t.Fatalf("tie-break order: %+v, %v", hits, err)
	}
}

func TestSearchManyDeals(t *testing.T) {
	s := newStore(t)
	for i := 0; i < 50; i++ {
		d := sampleDeal(fmt.Sprintf("DEAL %03d", i))
		if i%2 == 0 {
			d.Towers = []TowerScope{{Tower: "Storage Management Services", Significance: float64(i) / 50}}
		}
		if err := s.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	hits, err := s.Search(Query{Tower: "Storage Management Services"})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 25 {
		t.Fatalf("hits = %d", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i-1].Score < hits[i].Score {
			t.Fatal("hits not score-ordered")
		}
	}
}

func TestSimilarDeals(t *testing.T) {
	s := newStore(t)
	put := func(id, industry, consultant string, towers ...TowerScope) {
		d := sampleDeal(id)
		d.Overview.Industry = industry
		d.Overview.Consultant = consultant
		d.Towers = towers
		if err := s.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	put("REF", "Insurance", "TPI",
		TowerScope{Tower: "End User Services", Significance: 1.0},
		TowerScope{Tower: "Storage Management Services", Significance: 0.5})
	put("TWIN", "Insurance", "TPI",
		TowerScope{Tower: "End User Services", Significance: 0.9},
		TowerScope{Tower: "Storage Management Services", Significance: 0.6})
	put("COUSIN", "Banking", "Gartner",
		TowerScope{Tower: "End User Services", Significance: 0.8},
		TowerScope{Tower: "Network Services", Significance: 0.8})
	put("STRANGER", "Retail", "TPI",
		TowerScope{Tower: "Human Resources Services", Significance: 1.0})

	ref, err := s.Get("REF")
	if err != nil {
		t.Fatal(err)
	}
	hits, err := s.SimilarTo(ref, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %+v (STRANGER shares no towers)", hits)
	}
	if hits[0].DealID != "TWIN" || hits[1].DealID != "COUSIN" {
		t.Fatalf("order = %+v", hits)
	}
	if hits[0].Score <= hits[1].Score {
		t.Fatalf("scores not ordered: %+v", hits)
	}
	if len(hits[0].SharedTowers) != 2 || hits[0].SharedTowers[0] != "End User Services" {
		t.Fatalf("shared towers = %v", hits[0].SharedTowers)
	}
	// k cap.
	hits, _ = s.SimilarTo(ref, 1, nil)
	if len(hits) != 1 {
		t.Fatalf("k ignored: %+v", hits)
	}
	// Visibility applies before the k cap: with TWIN hidden, the top 1 is
	// COUSIN, not an empty list.
	hits, _ = s.SimilarTo(ref, 1, func(id string) bool { return id != "TWIN" })
	if len(hits) != 1 || hits[0].DealID != "COUSIN" {
		t.Fatalf("hidden TWIN: hits = %+v, want [COUSIN]", hits)
	}
}

func TestSimilarErrors(t *testing.T) {
	s := newStore(t)
	d := sampleDeal("EMPTY")
	d.Towers = nil
	if err := s.Put(d); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SimilarTo(d, 3, nil); err == nil {
		t.Fatal("towerless reference accepted")
	}
}
