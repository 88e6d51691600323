package core

import (
	"testing"

	"repro/internal/access"
	"repro/internal/index"
	"repro/internal/relstore"
	"repro/internal/siapi"
	"repro/internal/synopsis"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
)

// fixtureDeals and fixtureDocs are the hand-built two-deal corpus: DEAL A is
// a storage deal with a "data replication" solution document; DEAL B is an
// EUS deal.
func fixtureDeals() []synopsis.Deal {
	return []synopsis.Deal{
		{
			Overview: synopsis.Overview{DealID: "DEAL A", Customer: "Acme", Industry: "Banking"},
			Towers: []synopsis.TowerScope{
				{Tower: "Storage Management Services", Significance: 0.9},
				{Tower: "Disaster Recovery Services", Significance: 0.5},
			},
			People: []synopsis.Contact{{Name: "Jo Park", Role: "CSE", Category: "core deal team"}},
		},
		{
			Overview: synopsis.Overview{DealID: "DEAL B", Customer: "Borealis", Industry: "Insurance"},
			Towers: []synopsis.TowerScope{
				{Tower: "End User Services", SubTower: "Customer Service Center", Significance: 0.8},
				{Tower: "End User Services", Significance: 0.8},
			},
			People: []synopsis.Contact{{Name: "Sam White", Org: "ABC", Role: "CIO", Category: "client team"}},
		},
	}
}

func fixtureDocs() []index.Document {
	return []index.Document{
		{ExtID: "DEAL A/sol.deck", Fields: []index.Field{
			{Name: siapi.FieldTitle, Text: "Technical Solution"},
			{Name: siapi.FieldBody, Text: "data replication between sites for storage management"},
			{Name: siapi.FieldDeal, Text: "DEAL A", Keyword: true},
			{Name: "techsolution", Text: "data replication between sites"},
		}, Meta: map[string]string{"deal": "DEAL A"}},
		{ExtID: "DEAL B/notes.txt", Fields: []index.Field{
			{Name: siapi.FieldTitle, Text: "Notes"},
			{Name: siapi.FieldBody, Text: "help desk replication of tickets and staffing"},
			{Name: siapi.FieldDeal, Text: "DEAL B", Keyword: true},
		}, Meta: map[string]string{"deal": "DEAL B"}},
	}
}

// newEngineOver builds an engine with one backend per name, the deals and
// their documents partitioned by ShardFor the way a cluster ingest routes
// them.
func newEngineOver(t *testing.T, names []string, deals []synopsis.Deal, docs []index.Document) *Engine {
	t.Helper()
	n := len(names)
	e := &Engine{Tax: taxonomy.Default(), Backends: make([]ShardBackend, n)}
	indexes := make([]*index.Index, n)
	for i, name := range names {
		store, err := synopsis.NewStore(relstore.NewDB())
		if err != nil {
			t.Fatal(err)
		}
		indexes[i] = index.New(textproc.DefaultAnalyzer)
		docs := siapi.NewEngine(indexes[i])
		e.Backends[i] = ShardBackend{Name: name, Synopses: store, Docs: func() *siapi.Engine { return docs }}
	}
	for _, d := range deals {
		if err := e.Backends[ShardFor(d.Overview.DealID, n)].Synopses.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range docs {
		if _, err := indexes[ShardFor(d.Meta["deal"], n)].Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// newEngine is the monolith over the two-deal corpus.
func newEngine(t *testing.T) *Engine {
	t.Helper()
	return newEngineOver(t, []string{""}, fixtureDeals(), fixtureDocs())
}

func anyUser() access.User { return access.User{ID: "u", Roles: []access.Role{access.RoleAdmin}} }

func dealIDs(res Result) []string {
	out := make([]string, len(res.Activities))
	for i, a := range res.Activities {
		out[i] = a.DealID
	}
	return out
}

func TestConceptOnlyQuery(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{Tower: "Storage Management Services"})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	if len(got) != 1 || got[0] != "DEAL A" {
		t.Fatalf("activities = %v", got)
	}
	a := res.Activities[0]
	if a.Synopsis == nil || a.Synopsis.Overview.Customer != "Acme" {
		t.Fatalf("synopsis missing: %+v", a)
	}
	if len(a.MatchedTowers) == 0 || a.MatchedTowers[0] != "Storage Management Services" {
		t.Fatalf("matched towers = %v", a.MatchedTowers)
	}
	if res.UnscopedFallback {
		t.Fatal("fallback flagged on a concept hit")
	}
}

func TestConceptViaAcronym(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{Tower: "EUS"})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	if len(got) != 1 || got[0] != "DEAL B" {
		t.Fatalf("activities = %v", got)
	}
}

func TestConceptViaSubTowerAlias(t *testing.T) {
	e := newEngine(t)
	// "CSC" resolves to the Customer Service Center sub-tower.
	res, err := e.Search(anyUser(), FormQuery{Tower: "CSC"})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	if len(got) != 1 || got[0] != "DEAL B" {
		t.Fatalf("activities = %v", got)
	}
}

func TestConceptPlusTextScopes(t *testing.T) {
	e := newEngine(t)
	// "replication" matches docs in both deals, but the storage concept
	// scopes the search to DEAL A (Figure 1 steps 5-8).
	res, err := e.Search(anyUser(), FormQuery{
		Tower:    "Storage Management Services",
		AllWords: []string{"replication"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	if len(got) != 1 || got[0] != "DEAL A" {
		t.Fatalf("activities = %v", got)
	}
	if len(res.Activities[0].Docs) != 1 {
		t.Fatalf("docs = %+v", res.Activities[0].Docs)
	}
	if res.Activities[0].Score <= res.Activities[0].SynopsisScore {
		t.Fatalf("combined score must add doc evidence: %+v", res.Activities[0])
	}
}

func TestConceptMatchButNoDocs(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{
		Tower:    "Storage Management Services",
		AllWords: []string{"nonexistentword"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 0 {
		t.Fatalf("activities = %v (scoped SIAPI matched nothing)", dealIDs(res))
	}
}

func TestUnscopedFallback(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{AllWords: []string{"replication"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UnscopedFallback {
		t.Fatal("fallback not flagged")
	}
	if len(res.Activities) != 2 {
		t.Fatalf("activities = %v", dealIDs(res))
	}
}

func TestConceptNoMatchIsEmpty(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{
		Tower:    "Network Services",
		AllWords: []string{"replication"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 0 || res.UnscopedFallback {
		t.Fatalf("res = %+v (concept filters are hard)", res)
	}
}

func TestEmptyQuery(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 0 {
		t.Fatalf("empty query returned %v", dealIDs(res))
	}
}

func TestPersonQuery(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{PersonName: "Sam White", PersonOrg: "ABC"})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	if len(got) != 1 || got[0] != "DEAL B" {
		t.Fatalf("activities = %v", got)
	}
}

func TestTechSolutionTarget(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{
		ExactPhrase: "data replication",
		Target:      TargetTechSolution,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	// Only DEAL A has a techsolution field containing the phrase.
	if len(got) != 1 || got[0] != "DEAL A" {
		t.Fatalf("activities = %v", got)
	}
}

func TestAccessControlLevels(t *testing.T) {
	e := newEngine(t)
	ctl := access.NewController()
	e.Access = ctl
	sales := access.User{ID: "s", Roles: []access.Role{access.RoleSales}}
	res, err := e.Search(sales, FormQuery{AllWords: []string{"replication"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 2 {
		t.Fatalf("activities = %v", dealIDs(res))
	}
	for _, a := range res.Activities {
		if a.Level != access.LevelSynopsis {
			t.Fatalf("level = %v", a.Level)
		}
		if a.Docs != nil {
			t.Fatalf("synopsis-level user saw documents: %+v", a.Docs)
		}
		if a.Synopsis == nil {
			t.Fatal("synopsis missing at synopsis level")
		}
	}
	// A delivery user with no grants sees nothing.
	delivery := access.User{ID: "d", Roles: []access.Role{access.RoleDelivery}}
	res, err = e.Search(delivery, FormQuery{AllWords: []string{"replication"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 0 {
		t.Fatalf("delivery sees %v", dealIDs(res))
	}
	// Granting full access restores documents.
	ctl.Grant("s", "DEAL A", access.LevelFull)
	res, _ = e.Search(sales, FormQuery{AllWords: []string{"replication"}})
	for _, a := range res.Activities {
		if a.DealID == "DEAL A" && len(a.Docs) == 0 {
			t.Fatal("full-access activity has no documents")
		}
	}
}

func TestDisableScopingIntersects(t *testing.T) {
	e := newEngine(t)
	e.DisableScoping = true
	res, err := e.Search(anyUser(), FormQuery{
		Tower:    "Storage Management Services",
		AllWords: []string{"replication"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	if len(got) != 1 || got[0] != "DEAL A" {
		t.Fatalf("ablation changed semantics: %v", got)
	}
}

func TestLimit(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{AllWords: []string{"replication"}, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 1 {
		t.Fatalf("limit ignored: %v", dealIDs(res))
	}
}

func TestFormQueryHelpers(t *testing.T) {
	if (FormQuery{}).HasConcepts() || (FormQuery{}).HasText() {
		t.Fatal("empty query has criteria")
	}
	if !(FormQuery{Tower: "x"}).HasConcepts() {
		t.Fatal("tower not a concept")
	}
	if !(FormQuery{ExactPhrase: "x"}).HasText() {
		t.Fatal("phrase not text")
	}
}

func TestExplainPopulated(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{Tower: "SMS", AllWords: []string{"replication"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explain) < 2 {
		t.Fatalf("explain = %v", res.Explain)
	}
}

func TestSuggestionsOnUnknownTower(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{Tower: "Strorage Management Services"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 0 {
		t.Fatalf("typo matched deals: %v", dealIDs(res))
	}
	if len(res.Suggestions) == 0 {
		t.Fatal("no suggestions for a one-typo tower")
	}
	found := false
	for _, s := range res.Suggestions {
		if s == "storage management services" {
			found = true
		}
	}
	if !found {
		t.Fatalf("suggestions = %v", res.Suggestions)
	}
	// A resolving tower must not produce suggestions.
	res, err = e.Search(anyUser(), FormQuery{Tower: "EUS"})
	if err != nil || len(res.Suggestions) != 0 {
		t.Fatalf("suggestions on valid concept: %v, %v", res.Suggestions, err)
	}
}

func TestExplore(t *testing.T) {
	e := newEngine(t)
	hits, err := e.Explore(anyUser(), "DEAL A", FormQuery{AllWords: []string{"replication"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].DealID != "DEAL A" {
		t.Fatalf("hits = %+v", hits)
	}
	// Text criteria required.
	if _, err := e.Explore(anyUser(), "DEAL A", FormQuery{}); err == nil {
		t.Fatal("criteria-free explore accepted")
	}
	// Access enforced: synopsis-level users cannot drill into documents.
	e.Access = access.NewController()
	sales := access.User{ID: "s", Roles: []access.Role{access.RoleSales}}
	if _, err := e.Explore(sales, "DEAL A", FormQuery{AllWords: []string{"replication"}}); err == nil {
		t.Fatal("synopsis-level user explored documents")
	}
}

func TestWinStrategyTarget(t *testing.T) {
	e := newEngine(t)
	// No winstrategy fields in the hand-built index: target must yield 0,
	// proving the field routing (not falling back to body).
	res, err := e.Search(anyUser(), FormQuery{AllWords: []string{"replication"}, Target: TargetWinStrategy})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 0 {
		t.Fatalf("winstrategy target leaked to body: %v", dealIDs(res))
	}
}
