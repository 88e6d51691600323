package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	eil "repro"
	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/siapi"
	"repro/internal/synopsis"
)

// Request generator with ground truth (after Endrullis et al., "Evaluation of
// Query Generators for Entity Search Engines"): every read is built to find
// one target deal. Concept criteria are copied from the target's ingested
// synopsis, text predicates from its indexed documents, and the generator
// checks against its own copy of the synopses that at most maxScope deals
// satisfy the criteria — so the target is on the one result page by
// construction, and a response without it is a wrong answer, not bad luck.

// maxScope bounds how many corpus deals may satisfy a request's concept
// criteria. The result page holds pageLimit activities; the margin leaves
// room for held-out deals that the write workloads add during a run.
const maxScope = 10

// class is a request's shape; the per-class mix is fixed (see searchMix).
type class int

const (
	classConcept  class = iota // concept criteria only
	classAllWords              // concept + all-words
	classPhrase                // concept + exact phrase
	classAnyWords              // concept + any-words
	classUnscoped              // any-words, no concept criteria
	classKeyword               // /api/keyword search box
)

// keywordShare is the fraction of reads that go to /api/keyword; the rest
// are /api/search, split by searchMix.
const keywordShare = 0.22

// searchMix is the cumulative class distribution of /api/search requests:
// 25% concept-only, 35% concept+all-words, 15% concept+phrase, 10%
// concept+any-words, 15% unscoped any-words.
var searchMix = [...]struct {
	upTo float64
	c    class
}{{0.25, classConcept}, {0.60, classAllWords}, {0.75, classPhrase}, {0.85, classAnyWords}, {1, classUnscoped}}

// request is one generated read with its known answer and, for the traced
// run's deeper entry points, the decomposed queries core would derive.
type request struct {
	class  class
	target string // deal that must appear in the response
	url    string // path and query for the web handler
	needle []byte // `"DealID": "<target>"` as the handler encodes it
	// unpinned is set when updates have let more deals satisfy the concept
	// criteria than a page holds: the target need no longer be on it.
	unpinned bool

	form    core.FormQuery // /api/search
	keyword string         // /api/keyword
	sq      synopsis.Query // what core composes from form
	dq      siapi.Query    // what core composes from form / siapi parses from keyword
}

func (r *request) isKeyword() bool { return r.class == classKeyword }

// token is one indexable word of a sampled document, with its analyzer
// position so phrases can be cut from truly adjacent tokens.
type token struct {
	surface string
	pos     int
}

// person is a contact of a deal whose full name (and e-mail address, when the
// synopsis has one) occurs in the deal's documents. synth keeps full names
// unique corpus-wide, so a phrase or address query for one matches documents
// of this deal only.
type person struct {
	name      string
	email     string
	docs      [][]token // documents mentioning the name
	emailDocs [][]token // documents mentioning the address
}

// dealPool is everything the generator may draw on for one target deal.
type dealPool struct {
	id      string
	syn     synopsis.Deal
	names   []string // lower-cased contact names, for the PersonName model
	persons []person
	emails  []int     // indexes into persons with an e-mail anchor
	docs    [][]token // sampled documents
}

// pools is the read-only state shared by every generator over one system.
type pools struct {
	all   []*dealPool // every deal: what the concept model counts over
	deals []*dealPool // deals with everything a target needs
}

// docsPerDeal is how many of a deal's documents are sampled for words.
const docsPerDeal = 16

// repin re-reads every deal's synopsis after updates and marks which of the
// requests still have their target pinned to the one result page.
func repin(sys *eil.System, reqs []*request) error {
	ids, err := sys.Synopses.DealIDs()
	if err != nil {
		return fmt.Errorf("repin: %w", err)
	}
	p := &pools{}
	for _, id := range ids {
		syn, err := sys.Deal(access.User{}, id)
		if err != nil {
			return fmt.Errorf("repin: %s: %w", id, err)
		}
		p.all = append(p.all, newDealPool(id, syn))
	}
	for _, r := range reqs {
		r.unpinned = !r.sq.Empty() && p.scope(r.sq) > pageLimit
	}
	return nil
}

func newDealPool(id string, syn synopsis.Deal) *dealPool {
	dp := &dealPool{id: id, syn: syn}
	for _, c := range syn.People {
		dp.names = append(dp.names, strings.ToLower(c.Name))
	}
	return dp
}

// buildPools reads every deal's synopsis and a sample of its documents
// through the system's public surface. It depends on the corpus only, never
// on the seed.
func buildPools(sys *eil.System) (*pools, error) {
	ids, err := sys.Synopses.DealIDs()
	if err != nil {
		return nil, fmt.Errorf("pools: %w", err)
	}
	ix := sys.Index
	an := ix.Analyzer()
	tokens := func(extID string) []token {
		id, ok := ix.Lookup(extID)
		if !ok {
			return nil
		}
		var out []token
		for _, t := range an.Tokenize(ix.FieldText(id, siapi.FieldBody)) {
			if plainWord(t.Surface) {
				out = append(out, token{t.Surface, t.Pos})
			}
		}
		return out
	}
	p := &pools{}
	for _, id := range ids {
		syn, err := sys.Deal(access.User{}, id)
		if err != nil {
			return nil, fmt.Errorf("pools: %s: %w", id, err)
		}
		dp := newDealPool(id, syn)
		paths := ix.ExtIDsByMeta("deal", id)
		for i := 0; i < docsPerDeal && i < len(paths); i++ {
			if toks := tokens(paths[i*len(paths)/min(docsPerDeal, len(paths))]); len(toks) >= 2 {
				dp.docs = append(dp.docs, toks)
			}
		}
		// mentions samples documents of this deal containing the phrase.
		mentions := func(phrase string) [][]token {
			var docs [][]token
			for _, h := range ix.Search(index.PhraseQuery{Field: siapi.FieldBody, Terms: an.Terms(phrase)}, 4) {
				if ix.Meta(h.Doc, "deal") != id {
					continue
				}
				if ext, err := ix.ExtID(h.Doc); err == nil {
					if toks := tokens(ext); len(toks) >= 2 {
						docs = append(docs, toks)
					}
				}
			}
			return docs
		}
		for _, c := range syn.People {
			pr := person{name: c.Name, docs: mentions(c.Name)}
			if len(pr.docs) == 0 {
				continue
			}
			if c.Email != "" {
				if pr.emailDocs = mentions(c.Email); len(pr.emailDocs) > 0 {
					pr.email = c.Email
					dp.emails = append(dp.emails, len(dp.persons))
				}
			}
			dp.persons = append(dp.persons, pr)
		}
		p.all = append(p.all, dp)
		if len(dp.docs) > 0 && len(dp.persons) > 0 && len(dp.emails) > 0 && len(syn.Towers) > 0 {
			p.deals = append(p.deals, dp)
		}
	}
	if len(p.deals) == 0 {
		return nil, fmt.Errorf("pools: no deal has a synopsis, sampled words and a contact anchor")
	}
	return p, nil
}

// plainWord keeps tokens that survive URL transport and the form's
// whitespace splitting unchanged and analyze to exactly one term.
func plainWord(s string) bool {
	if len(s) < 3 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return false
		}
	}
	return true
}

// matches is the generator's model of synopsis.Store.Search: does deal d
// satisfy every set criterion of sq?
func (d *dealPool) matches(sq synopsis.Query) bool {
	if sq.Tower != "" || sq.SubTower != "" {
		ok := false
		for _, t := range d.syn.Towers {
			if (sq.Tower == "" || t.Tower == sq.Tower) && (sq.SubTower == "" || t.SubTower == sq.SubTower) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	o := d.syn.Overview
	if sq.Industry != "" && o.Industry != sq.Industry ||
		sq.Consultant != "" && o.Consultant != sq.Consultant ||
		sq.Geography != "" && o.Geography != sq.Geography ||
		sq.Country != "" && o.Country != sq.Country {
		return false
	}
	if sq.PersonName != "" {
		frag := strings.ToLower(sq.PersonName)
		ok := false
		for _, n := range d.names {
			if strings.Contains(n, frag) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func (p *pools) scope(sq synopsis.Query) int {
	n := 0
	for _, d := range p.all {
		if d.matches(sq) {
			n++
		}
	}
	return n
}

// generator emits a seeded request stream over the pools.
type generator struct {
	p   *pools
	rng *rand.Rand
}

func newGenerator(p *pools, seed int64) *generator {
	return &generator{p: p, rng: rand.New(rand.NewSource(seed))}
}

// next draws a request in the fixed read mix: keywordShare to /api/keyword,
// the rest to /api/search split by searchMix, targets uniform over deals.
func (g *generator) next() *request {
	if g.rng.Float64() < keywordShare {
		return g.nextOf(classKeyword)
	}
	u := g.rng.Float64()
	for _, m := range searchMix {
		if u < m.upTo {
			return g.nextOf(m.c)
		}
	}
	return g.nextOf(classUnscoped)
}

func (g *generator) nextOf(c class) *request {
	d := g.p.deals[g.rng.Intn(len(g.p.deals))]
	r := &request{class: c, target: d.id, needle: []byte(`"DealID": "` + d.id + `"`)}
	switch c {
	case classKeyword:
		pr := d.persons[g.rng.Intn(len(d.persons))]
		if pr.email != "" && g.rng.Intn(2) == 0 {
			r.keyword = pr.email + " " + g.pick(pr.emailDocs[g.rng.Intn(len(pr.emailDocs))], 1)[0]
		} else {
			r.keyword = `"` + pr.name + `" ` + g.pick(pr.docs[g.rng.Intn(len(pr.docs))], 1)[0]
		}
		r.dq = siapi.ParseKeywords(r.keyword)
		r.url = "/api/keyword?" + url.Values{"q": {r.keyword}, "limit": {strconv.Itoa(pageLimit)}}.Encode()
		return r
	case classUnscoped:
		r.form.AnyWords = []string{d.persons[d.emails[g.rng.Intn(len(d.emails))]].email}
		if len(d.emails) > 1 && g.rng.Intn(2) == 0 {
			if other := d.persons[d.emails[g.rng.Intn(len(d.emails))]].email; other != r.form.AnyWords[0] {
				r.form.AnyWords = append(r.form.AnyWords, other)
			}
		}
	default:
		g.concepts(d, r)
		doc := d.docs[g.rng.Intn(len(d.docs))]
		switch c {
		case classAllWords:
			r.form.AllWords = g.pick(doc, 1+g.rng.Intn(2))
		case classAnyWords:
			r.form.AnyWords = g.pick(doc, 1+g.rng.Intn(2))
		case classPhrase:
			r.form.ExactPhrase = g.phrase(d)
		}
	}
	r.form.Limit = pageLimit
	r.dq = siapi.Query{All: r.form.AllWords, Exact: r.form.ExactPhrase, Any: r.form.AnyWords}
	r.url = "/api/search?" + formValues(r.form).Encode()
	return r
}

// concepts fills r's concept criteria from the target's synopsis: a tower
// row, a random subset of the overview attributes and, more often than not,
// a contact's name — then tightens until the model says at most maxScope
// corpus deals qualify. The contact criterion is what makes the stream of
// synopsis queries effectively non-repeating.
func (g *generator) concepts(d *dealPool, r *request) {
	o := d.syn.Overview
	for attempt := 0; ; attempt++ {
		var sq synopsis.Query
		tw := d.syn.Towers[g.rng.Intn(len(d.syn.Towers))]
		sq.Tower, sq.SubTower = tw.Tower, tw.SubTower
		bits := g.rng.Intn(16)
		withPerson := g.rng.Float64() < 0.7
		if attempt >= 4 { // the most selective form: everything the synopsis knows
			bits, withPerson = 15, true
		}
		if bits&1 != 0 {
			sq.Industry = o.Industry
		}
		if bits&2 != 0 {
			sq.Consultant = o.Consultant
		}
		if bits&4 != 0 {
			sq.Geography = o.Geography
		}
		if bits&8 != 0 {
			sq.Country = o.Country
		}
		if withPerson {
			name := d.persons[g.rng.Intn(len(d.persons))].name
			if parts := strings.Fields(name); attempt < 4 && len(parts) == 2 && g.rng.Intn(3) == 0 {
				name = parts[1]
			}
			sq.PersonName = name
		}
		if attempt < 5 && g.p.scope(sq) > maxScope {
			continue
		}
		r.sq = sq
		r.form.Tower, r.form.SubTower = sq.Tower, sq.SubTower
		r.form.Industry, r.form.Consultant = sq.Industry, sq.Consultant
		r.form.Geography, r.form.Country = sq.Geography, sq.Country
		r.form.PersonName = sq.PersonName
		return
	}
}

// pick returns n distinct words of one document.
func (g *generator) pick(doc []token, n int) []string {
	out := []string{doc[g.rng.Intn(len(doc))].surface}
	for tries := 0; len(out) < n && tries < 8; tries++ {
		if w := doc[g.rng.Intn(len(doc))].surface; !strings.EqualFold(w, out[0]) {
			out = append(out, w)
		}
	}
	return out
}

// phrase cuts two adjacent words out of one of the deal's documents; when
// the sampled documents offer no adjacent pair it falls back to a contact's
// full name, which is a phrase of the deal's documents too.
func (g *generator) phrase(d *dealPool) string {
	for tries := 0; tries < 8; tries++ {
		doc := d.docs[g.rng.Intn(len(d.docs))]
		i := g.rng.Intn(len(doc) - 1)
		for k := 0; k < len(doc)-1; k++ {
			a, b := doc[(i+k)%(len(doc)-1)], doc[(i+k)%(len(doc)-1)+1]
			if b.pos == a.pos+1 {
				return a.surface + " " + b.surface
			}
		}
	}
	return d.persons[g.rng.Intn(len(d.persons))].name
}

// formValues renders a FormQuery as the web form's parameters.
func formValues(q core.FormQuery) url.Values {
	v := url.Values{}
	set := func(k, s string) {
		if s != "" {
			v.Set(k, s)
		}
	}
	set("tower", q.Tower)
	set("subtower", q.SubTower)
	set("industry", q.Industry)
	set("consultant", q.Consultant)
	set("geography", q.Geography)
	set("country", q.Country)
	set("person", q.PersonName)
	set("all", strings.Join(q.AllWords, " "))
	set("exact", q.ExactPhrase)
	set("any", strings.Join(q.AnyWords, " "))
	set("limit", strconv.Itoa(q.Limit))
	return v
}

// population is the hot working set: hotRequests distinct requests in the
// read mix, drawn zipf within each endpoint so the endpoint split stays
// fixed. The population and its rank order are the benchmark's, not the
// seed's: zipf gives the first rank about a third of the traffic, so a
// population redrawn per seed would make every seed a different workload.
// The seed drives the draws.
type population struct {
	search, keyword []*request
}

func newPopulation(pl *pools) *population {
	g, n := newGenerator(pl, 64), hotRequests
	p := &population{}
	seen := map[string]bool{}
	nKeyword := int(float64(n)*keywordShare + 0.5)
	for len(p.keyword) < nKeyword {
		if r := g.nextOf(classKeyword); !seen[r.url] {
			seen[r.url] = true
			p.keyword = append(p.keyword, r)
		}
	}
	for len(p.search) < n-nKeyword {
		u := g.rng.Float64()
		for _, m := range searchMix {
			if u < m.upTo {
				if r := g.nextOf(m.c); !seen[r.url] {
					seen[r.url] = true
					p.search = append(p.search, r)
				}
				break
			}
		}
	}
	return p
}

func (p *population) all() []*request {
	return append(append([]*request(nil), p.search...), p.keyword...)
}

// hotDrawer draws from a population with its own random stream.
type hotDrawer struct {
	p      *population
	rng    *rand.Rand
	zs, zk *rand.Zipf
}

func newHotDrawer(p *population, seed int64) *hotDrawer {
	rng := rand.New(rand.NewSource(seed))
	return &hotDrawer{
		p: p, rng: rng,
		zs: rand.NewZipf(rng, zipfS, 1, uint64(len(p.search)-1)),
		zk: rand.NewZipf(rng, zipfS, 1, uint64(len(p.keyword)-1)),
	}
}

func (h *hotDrawer) next() *request {
	if h.rng.Float64() < keywordShare {
		return h.p.keyword[h.zk.Uint64()]
	}
	return h.p.search[h.zs.Uint64()]
}

// streamHash fingerprints what a seed generates: the first n zipf draws from
// the hot population and the first n requests of the cold stream.
func streamHash(p *pools, seed int64, n int) string {
	h := sha256.New()
	hot := newHotDrawer(newPopulation(p), seed)
	cold := newGenerator(p, coldSeed(seed, 0))
	for i := 0; i < n; i++ {
		fmt.Fprintln(h, hot.next().url)
		r := cold.next()
		fmt.Fprintln(h, r.url, r.target)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// coldSeed gives each client of the cold stream its own sequence.
func coldSeed(seed int64, client int) int64 { return seed*1000003 + int64(client) + 1 }
