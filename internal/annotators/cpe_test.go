package annotators

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/directory"
	"repro/internal/docmodel"
	"repro/internal/docparse"
	"repro/internal/relstore"
	"repro/internal/synopsis"
	"repro/internal/taxonomy"
)

// buildDealDocs returns a small but complete engagement workbook for one
// deal, with the messiness the real data has: repeated scope mentions for
// true towers, a single incidental mention of an out-of-scope tower, split
// contact evidence, and an overview template.
func buildDealDocs(t *testing.T, dealID string) []*docmodel.Document {
	t.Helper()
	files := map[string]string{
		dealID + "/overview.txt": `Deal Overview
Customer: Cygnus Insurance
Industry: Insurance
Out Sourcing Consultant: TPI
Geography: Americas
Country: United States
Contract Term Start: 2006-01-05
Term Duration Months: 60
Total Contract Value: 50 to 100M
Is International: Y
Scope summary: End User Services with Customer Service Center, plus Storage Management Services.
`,
		dealID + "/scope.deck": `# Services Scope Baseline
- End User Services rollout
- Customer Service Center staffing
- Storage Management Services consolidation
`,
		dealID + "/sol.deck": `# Technical Solution Overview
## Storage Management Services
- data replication between sites with RTO under 48 hours
`,
		dealID + "/win.deck": `# Win Strategy
- Price to win
- Leverage incumbent relationships
`,
		dealID + "/team.grid": `GRID Deal Team Roster
Name | Role | Email | Phone | Organization
Sam White | CIO | sam.white@abc.com | | ABC Corp
Jo Park | CSE | jo.park@ibm.com | |
`,
		dealID + "/kickoff.deck": `# Deal Team
- Jo Park, CSE
- Lee Chan - cross tower TSA
`,
		dealID + "/mail1.eml": `From: jo.park@ibm.com
To: sam.white@abc.com
Subject: follow-up

Quick note: our Network Services colleagues said hello, unrelated to this deal.
Reference: Borealis rollout 2005
`,
	}
	var docs []*docmodel.Document
	// Stable order for deterministic rollups.
	for _, path := range []string{
		dealID + "/overview.txt", dealID + "/scope.deck", dealID + "/sol.deck",
		dealID + "/win.deck", dealID + "/team.grid", dealID + "/kickoff.deck",
		dealID + "/mail1.eml",
	} {
		doc, err := docparse.Parse(path, files[path])
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		doc.DealID = dealID
		docs = append(docs, doc)
	}
	return docs
}

func runBuilder(t *testing.T, b *Builder, docs []*docmodel.Document) {
	t.Helper()
	tax := taxonomy.Default()
	p := &analysis.Pipeline{
		Reader:    &analysis.SliceReader{Docs: docs},
		Annotator: NewEILFlow(tax),
		Consumers: []analysis.Consumer{b},
		Workers:   2,
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

func newDir() *directory.Directory {
	d := directory.New()
	d.Add(directory.Person{Serial: "1", Name: "Jo Park", Email: "jo.park@ibm.com", Phone: "555-0101", Org: "ITD Sales", Title: "Client Solution Executive", Active: true})
	d.Add(directory.Person{Serial: "2", Name: "Lee Chan", Email: "lee.chan@ibm.com", Phone: "555-0102", Org: "ITD Delivery", Title: "TSA", Active: false})
	return d
}

func TestBuilderEndToEnd(t *testing.T) {
	store, err := synopsis.NewStore(relstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(store, newDir())
	runBuilder(t, b, buildDealDocs(t, "DEAL C"))

	deal, err := store.Get("DEAL C")
	if err != nil {
		t.Fatal(err)
	}
	// Overview facts.
	if deal.Overview.Customer != "Cygnus Insurance" || deal.Overview.Industry != "Insurance" ||
		deal.Overview.Consultant != "TPI" || deal.Overview.TermMonths != 60 ||
		deal.Overview.TCVBand != "50 to 100M" || !deal.Overview.International {
		t.Fatalf("overview = %+v", deal.Overview)
	}
	if deal.Overview.Repository != "DEAL C" {
		t.Fatalf("repository = %q", deal.Overview.Repository)
	}
	// Scope CPE: EUS and SMS pass the threshold; the single incidental
	// Network Services mention in an email must not.
	towers := map[string]bool{}
	for _, tw := range deal.Towers {
		if tw.SubTower == "" {
			towers[tw.Tower] = true
		}
	}
	if !towers["End User Services"] || !towers["Storage Management Services"] {
		t.Fatalf("towers = %+v", deal.Towers)
	}
	if towers["Network Services"] {
		t.Fatalf("incidental mention promoted to scope: %+v", deal.Towers)
	}
	// Sub-tower row present for CSC.
	foundCSC := false
	for _, tw := range deal.Towers {
		if tw.SubTower == "Customer Service Center" {
			foundCSC = true
		}
	}
	if !foundCSC {
		t.Fatalf("CSC sub-tower missing: %+v", deal.Towers)
	}
	// Contacts: deduplicated (Jo Park appears in grid, slides, and email
	// headers — one record), enriched (phone from directory), normalized
	// (CSE -> core deal team), validated.
	var jo, sam, lee *synopsis.Contact
	for i := range deal.People {
		switch deal.People[i].Name {
		case "Jo Park":
			jo = &deal.People[i]
		case "Sam White":
			sam = &deal.People[i]
		case "Lee Chan":
			lee = &deal.People[i]
		}
	}
	if jo == nil || sam == nil || lee == nil {
		t.Fatalf("people = %+v", deal.People)
	}
	if jo.Phone != "555-0101" || !jo.Validated || jo.Category != CategoryCoreTeam {
		t.Fatalf("jo = %+v", *jo)
	}
	if sam.Category != CategoryClient || sam.Org != "ABC Corp" {
		t.Fatalf("sam = %+v", *sam)
	}
	if lee.Category != CategoryTechTeam {
		t.Fatalf("lee = %+v", *lee)
	}
	countJo := 0
	for _, p := range deal.People {
		if p.Name == "Jo Park" {
			countJo++
		}
	}
	if countJo != 1 {
		t.Fatalf("Jo Park duplicated %d times: %+v", countJo, deal.People)
	}
	// Win strategies, client refs, tech solutions.
	if len(deal.WinStrategies) != 2 {
		t.Fatalf("strategies = %v", deal.WinStrategies)
	}
	if len(deal.ClientRefs) != 1 || !strings.Contains(deal.ClientRefs[0], "Borealis") {
		t.Fatalf("refs = %v", deal.ClientRefs)
	}
	if !strings.Contains(deal.TechSolutions["Storage Management Services"], "replication") {
		t.Fatalf("solutions = %v", deal.TechSolutions)
	}
}

func TestBuilderWithoutDirectory(t *testing.T) {
	store, err := synopsis.NewStore(relstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(store, nil) // ablation: no enrichment
	runBuilder(t, b, buildDealDocs(t, "DEAL C"))
	deal, err := store.Get("DEAL C")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range deal.People {
		if p.Validated {
			t.Fatalf("validated without directory: %+v", p)
		}
		if p.Name == "Jo Park" && p.Phone != "" {
			t.Fatalf("phone appeared from nowhere: %+v", p)
		}
	}
}

func TestBuilderDropInactive(t *testing.T) {
	store, err := synopsis.NewStore(relstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(store, newDir())
	b.DropInactive = true
	runBuilder(t, b, buildDealDocs(t, "DEAL C"))
	deal, err := store.Get("DEAL C")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range deal.People {
		if p.Name == "Lee Chan" {
			t.Fatalf("inactive employee kept: %+v", p)
		}
	}
}

func TestBuilderThresholdSweep(t *testing.T) {
	store, err := synopsis.NewStore(relstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(store, nil)
	b.MinScopeWeight = 100 // absurd threshold: nothing qualifies
	runBuilder(t, b, buildDealDocs(t, "DEAL C"))
	deal, err := store.Get("DEAL C")
	if err != nil {
		t.Fatal(err)
	}
	if len(deal.Towers) != 0 {
		t.Fatalf("towers above absurd threshold: %+v", deal.Towers)
	}
}

func TestBuilderMultiDealOrder(t *testing.T) {
	store, err := synopsis.NewStore(relstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(store, nil)
	docs := append(buildDealDocs(t, "DEAL B"), buildDealDocs(t, "DEAL A")...)
	runBuilder(t, b, docs)
	ids := b.DealIDs()
	if len(ids) != 2 || ids[0] != "DEAL B" || ids[1] != "DEAL A" {
		t.Fatalf("deal order = %v", ids)
	}
	stored, err := store.DealIDs()
	if err != nil || len(stored) != 2 {
		t.Fatalf("stored = %v, %v", stored, err)
	}
}

func TestBuilderOrphanDocsIgnored(t *testing.T) {
	store, err := synopsis.NewStore(relstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(store, nil)
	doc := &docmodel.Document{Path: "stray.txt", Body: "End User Services"}
	cas := analysis.NewCAS(doc)
	if err := b.Consume(cas); err != nil {
		t.Fatal(err)
	}
	if err := b.End(); err != nil {
		t.Fatal(err)
	}
	if ids, _ := store.DealIDs(); len(ids) != 0 {
		t.Fatalf("orphan created a deal: %v", ids)
	}
}

func TestFinalizeUnknownDeal(t *testing.T) {
	b := NewBuilder(nil, nil)
	if _, err := b.Finalize("NOPE"); err == nil {
		t.Fatal("unknown deal finalized")
	}
}

// RestoreState refuses a state End could not load — a deal with no ID, a
// deal listed twice — and keeps what the builder held.
func TestRestoreStateRefusesUnloadable(t *testing.T) {
	store, err := synopsis.NewStore(relstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(store, nil)
	runBuilder(t, b, append(buildDealDocs(t, "DEAL B"), buildDealDocs(t, "DEAL A")...))
	good := b.State()
	for name, bad := range map[string][]DealState{
		"empty id":  {good.Deals[0], {}},
		"duplicate": {good.Deals[0], good.Deals[1], good.Deals[0]},
	} {
		r := NewBuilder(nil, nil)
		if err := r.RestoreState(good); err != nil {
			t.Fatal(err)
		}
		if err := r.RestoreState(&BuilderState{MinScopeWeight: 9, Deals: bad}); err == nil {
			t.Errorf("%s: restored", name)
		}
		if ids := r.DealIDs(); len(ids) != 2 || ids[0] != "DEAL B" || r.MinScopeWeight != good.MinScopeWeight {
			t.Errorf("%s: the refusal changed the builder: %v, threshold %v", name, ids, r.MinScopeWeight)
		}
	}
}
