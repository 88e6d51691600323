package annotators

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/directory"
	"repro/internal/synopsis"
)

// Builder is EIL's Collection Processing Engine stack (§3.4): it consumes
// every analyzed document, aggregates annotations per business activity, and
// at End() performs the collection-level reasoning — scope occurrence
// counting with a significance threshold, contact de-duplication and role
// normalization (Figure 3 steps 9–12), personnel-directory enrichment
// (step 13), overview-fact conflict resolution — and populates the synopsis
// store (step 14).
type Builder struct {
	// Store receives the finished synopses.
	Store *synopsis.Store
	// Dir, when non-nil, validates and enriches contacts (step 13). The
	// directory ablation runs with Dir = nil.
	Dir *directory.Directory
	// MinScopeWeight is the CPE threshold: a tower whose summed mention
	// confidence over the activity is below it is treated as an incidental
	// mention, not a scope. The ablation bench sweeps this.
	MinScopeWeight float64
	// DropInactive removes directory-confirmed departed employees from the
	// contact list.
	DropInactive bool

	deals map[string]*dealAcc
	order []string
}

// NewBuilder returns a Builder with the standard configuration.
func NewBuilder(store *synopsis.Store, dir *directory.Directory) *Builder {
	return &Builder{Store: store, Dir: dir, MinScopeWeight: 2.0, DropInactive: false}
}

type scopeAgg struct {
	weight float64
	docs   map[string]bool
}

type contactSketch struct {
	fields map[string]string
	conf   map[string]float64 // per-field confidence
	best   float64
}

type factVote struct {
	value string
	conf  float64
}

type dealAcc struct {
	repository string
	towers     map[string]*scopeAgg          // tower -> agg
	subTowers  map[[2]string]*scopeAgg       // (tower, subtower) -> agg
	contacts   map[string]*contactSketch     // dedup key -> merged sketch
	facts      map[string]factVote           // key -> winning vote
	strategies map[string]float64            // text -> best conf
	refs       map[string]float64            // text -> best conf
	tech       map[string]map[string]float64 // tower -> text -> conf
}

func newDealAcc() *dealAcc {
	return &dealAcc{
		towers:     map[string]*scopeAgg{},
		subTowers:  map[[2]string]*scopeAgg{},
		contacts:   map[string]*contactSketch{},
		facts:      map[string]factVote{},
		strategies: map[string]float64{},
		refs:       map[string]float64{},
		tech:       map[string]map[string]float64{},
	}
}

// Name implements analysis.Consumer.
func (b *Builder) Name() string { return "synopsis-builder" }

// Consume implements analysis.Consumer: document-order accumulation (the
// "roll-up file for collection-level processing" of Figure 3 step 8).
func (b *Builder) Consume(cas *analysis.CAS) error {
	dealID := cas.Doc.DealID
	if dealID == "" {
		return nil // orphan documents carry no business context
	}
	if b.deals == nil {
		b.deals = map[string]*dealAcc{}
	}
	acc := b.deals[dealID]
	if acc == nil {
		acc = newDealAcc()
		b.deals[dealID] = acc
		b.order = append(b.order, dealID)
	}
	if acc.repository == "" {
		if i := strings.IndexByte(cas.Doc.Path, '/'); i > 0 {
			acc.repository = cas.Doc.Path[:i]
		}
	}
	for _, a := range cas.All() {
		switch a.Type {
		case TypeScope:
			b.consumeScope(acc, cas.Doc.Path, a)
		case TypePerson:
			b.consumePerson(acc, a)
		case TypeFact:
			key, value := a.Feature("key"), a.Feature("value")
			if key == "" || value == "" {
				continue
			}
			if v, ok := acc.facts[key]; !ok || a.Confidence > v.conf {
				acc.facts[key] = factVote{value: value, conf: a.Confidence}
			}
		case TypeWinStrategy:
			if t := a.Feature("text"); t != "" && a.Confidence > acc.strategies[t] {
				acc.strategies[t] = a.Confidence
			}
		case TypeClientRef:
			if t := a.Feature("text"); t != "" && a.Confidence > acc.refs[t] {
				acc.refs[t] = a.Confidence
			}
		case TypeTechSolution:
			tower, text := a.Feature("tower"), a.Feature("text")
			if tower == "" || text == "" {
				continue
			}
			m := acc.tech[tower]
			if m == nil {
				m = map[string]float64{}
				acc.tech[tower] = m
			}
			if a.Confidence > m[text] {
				m[text] = a.Confidence
			}
		}
	}
	return nil
}

func (b *Builder) consumeScope(acc *dealAcc, docPath string, a analysis.Annotation) {
	tower := a.Feature("tower")
	if tower == "" {
		return
	}
	agg := acc.towers[tower]
	if agg == nil {
		agg = &scopeAgg{docs: map[string]bool{}}
		acc.towers[tower] = agg
	}
	agg.weight += a.Confidence
	agg.docs[docPath] = true
	if sub := a.Feature("subtower"); sub != "" {
		key := [2]string{tower, sub}
		sagg := acc.subTowers[key]
		if sagg == nil {
			sagg = &scopeAgg{docs: map[string]bool{}}
			acc.subTowers[key] = sagg
		}
		sagg.weight += a.Confidence
		sagg.docs[docPath] = true
	}
}

// contactKey de-duplicates sketches: email when present, else folded name.
func contactKey(fields map[string]string) string {
	if e := strings.ToLower(fields["email"]); e != "" {
		return "e:" + e
	}
	return "n:" + strings.ToLower(foldSpaces(fields["name"]))
}

func (b *Builder) consumePerson(acc *dealAcc, a analysis.Annotation) {
	key := contactKey(a.Features)
	if key == "e:" || key == "n:" {
		return
	}
	sk := acc.contacts[key]
	if sk == nil {
		sk = &contactSketch{fields: map[string]string{}, conf: map[string]float64{}}
		acc.contacts[key] = sk
	}
	for field, value := range a.Features {
		if value == "" {
			continue
		}
		// Conflicting values: the higher-confidence source wins (Figure 3
		// step 10's "use document information ... to determine the relative
		// priorities and assist selection between conflicting values").
		if a.Confidence > sk.conf[field] {
			sk.fields[field] = value
			sk.conf[field] = a.Confidence
		}
	}
	if a.Confidence > sk.best {
		sk.best = a.Confidence
	}
}

// End implements analysis.Consumer: finalize every deal and load them into
// the store, which must be empty (synopsis.Store.Load).
func (b *Builder) End() error {
	deals := make([]synopsis.Deal, 0, len(b.order))
	for _, dealID := range b.order {
		deal, err := b.finalize(dealID, b.deals[dealID])
		if err != nil {
			return err
		}
		deals = append(deals, deal)
	}
	if err := b.Store.Load(deals); err != nil {
		return fmt.Errorf("annotators: store: %w", err)
	}
	return nil
}

// Finalize exposes single-deal finalization for tests and ablations without
// writing to the store.
func (b *Builder) Finalize(dealID string) (synopsis.Deal, error) {
	acc := b.deals[dealID]
	if acc == nil {
		return synopsis.Deal{}, fmt.Errorf("annotators: unknown deal %s", dealID)
	}
	return b.finalize(dealID, acc)
}

// DealIDs lists accumulated deals in first-seen order.
func (b *Builder) DealIDs() []string { return b.order }

// Has reports whether the builder holds accumulated state for the deal.
func (b *Builder) Has(dealID string) bool {
	_, ok := b.deals[dealID]
	return ok
}

// PutDeal finalizes one deal and writes it to the store — the incremental
// path used when new documents arrive for an already-ingested activity.
func (b *Builder) PutDeal(dealID string) error {
	deal, err := b.Finalize(dealID)
	if err != nil {
		return err
	}
	return b.Store.Put(deal)
}

// DropDeal discards a deal's accumulated state (and is a no-op for unknown
// deals). The caller removes the synopsis and index entries.
func (b *Builder) DropDeal(dealID string) {
	if _, ok := b.deals[dealID]; !ok {
		return
	}
	delete(b.deals, dealID)
	for i, id := range b.order {
		if id == dealID {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
}

func (b *Builder) finalize(dealID string, acc *dealAcc) (synopsis.Deal, error) {
	deal := synopsis.Deal{TechSolutions: map[string]string{}}
	deal.Overview = b.buildOverview(dealID, acc)
	deal.Towers = b.buildTowers(acc)
	deal.People = b.buildContacts(acc)
	for text := range acc.strategies {
		deal.WinStrategies = append(deal.WinStrategies, text)
	}
	sort.Strings(deal.WinStrategies)
	for text := range acc.refs {
		deal.ClientRefs = append(deal.ClientRefs, text)
	}
	sort.Strings(deal.ClientRefs)
	for tower, texts := range acc.tech {
		best, bestConf := "", -1.0
		for text, conf := range texts {
			if conf > bestConf || (conf == bestConf && text < best) {
				best, bestConf = text, conf
			}
		}
		deal.TechSolutions[tower] = best
	}
	return deal, nil
}

func (b *Builder) buildOverview(dealID string, acc *dealAcc) synopsis.Overview {
	get := func(key string) string { return acc.facts[key].value }
	months := 0
	if m := get("term_months"); m != "" {
		if n, err := strconv.Atoi(strings.Fields(m)[0]); err == nil {
			months = n
		}
	}
	intl := false
	switch strings.ToLower(get("international")) {
	case "y", "yes", "true":
		intl = true
	}
	return synopsis.Overview{
		DealID:        dealID,
		Customer:      get("customer"),
		Industry:      get("industry"),
		Consultant:    get("consultant"),
		Geography:     get("geography"),
		Country:       get("country"),
		TermStart:     get("term_start"),
		TermMonths:    months,
		TCVBand:       get("tcv_band"),
		International: intl,
		Repository:    acc.repository,
	}
}

// buildTowers applies the scope CPE: threshold on summed mention weight,
// significance normalized against the strongest tower so Figure 5's ordering
// ("the order of the services reflects the relative significance of the
// towers") is reproducible.
func (b *Builder) buildTowers(acc *dealAcc) []synopsis.TowerScope {
	maxWeight := 0.0
	for _, agg := range acc.towers {
		if agg.weight > maxWeight {
			maxWeight = agg.weight
		}
	}
	if maxWeight == 0 {
		return nil
	}
	var out []synopsis.TowerScope
	for tower, agg := range acc.towers {
		if agg.weight < b.MinScopeWeight {
			continue
		}
		out = append(out, synopsis.TowerScope{
			Tower:        tower,
			Significance: agg.weight / maxWeight,
		})
		// Sub-towers naturally accrue fewer mentions than their tower, so
		// their threshold is proportionally lower.
		subMin := b.MinScopeWeight * 0.75
		for key, sagg := range acc.subTowers {
			if key[0] != tower || sagg.weight < subMin {
				continue
			}
			out = append(out, synopsis.TowerScope{
				Tower:        tower,
				SubTower:     key[1],
				Significance: sagg.weight / maxWeight,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Significance != out[j].Significance {
			return out[i].Significance > out[j].Significance
		}
		if out[i].Tower != out[j].Tower {
			return out[i].Tower < out[j].Tower
		}
		return out[i].SubTower < out[j].SubTower
	})
	return out
}

// mergeNameSketches folds name-only sketches into email-keyed sketches of
// the same person: "there may be several entries for the same person and we
// need to merge the different fields into one single record" (Figure 3
// step 10 discussion).
func mergeNameSketches(contacts map[string]*contactSketch) {
	byName := map[string]string{} // folded name -> email-sketch key
	for key, sk := range contacts {
		if strings.HasPrefix(key, "e:") {
			if n := strings.ToLower(foldSpaces(sk.fields["name"])); n != "" {
				byName[n] = key
			}
		}
	}
	for key, sk := range contacts {
		if !strings.HasPrefix(key, "n:") {
			continue
		}
		target, ok := byName[strings.TrimPrefix(key, "n:")]
		if !ok {
			continue
		}
		dst := contacts[target]
		for field, value := range sk.fields {
			if value != "" && sk.conf[field] > dst.conf[field] {
				dst.fields[field] = value
				dst.conf[field] = sk.conf[field]
			}
		}
		delete(contacts, key)
	}
}

// buildContacts normalizes, enriches, and orders the deduplicated sketches.
func (b *Builder) buildContacts(acc *dealAcc) []synopsis.Contact {
	mergeNameSketches(acc.contacts)
	var out []synopsis.Contact
	for _, sk := range acc.contacts {
		c := synopsis.Contact{
			Name:  sk.fields["name"],
			Email: sk.fields["email"],
			Phone: sk.fields["phone"],
			Org:   sk.fields["org"],
		}
		c.Role, c.Category = NormalizeRole(sk.fields["role"], c.Org)
		if b.Dir != nil {
			var title string
			found, active := b.Dir.Enrich(c.Name, c.Email, &c.Phone, &c.Org, &title)
			if found {
				c.Validated = true
				if c.Role == "" && title != "" {
					c.Role, c.Category = NormalizeRole(title, c.Org)
				}
				if b.DropInactive && !active {
					continue
				}
			}
		}
		if c.Name == "" {
			continue // an email-only sketch that could not be named
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := CategoryRank(out[i].Category), CategoryRank(out[j].Category)
		if ri != rj {
			return ri < rj
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Email < out[j].Email
	})
	return out
}
