// Package synopsis is EIL's organized-information layer: the structured
// business context extracted from engagement workbooks, stored in the
// relational engine (the DB2 substitute) and queried by the business-
// activity driven search algorithm's "synopsis query" (Figure 1, steps 2
// and 4). A deal synopsis carries the tabs of the paper's Figure 6:
// Overview, People, Win Strategies, Client References, and Technology
// Solutions.
package synopsis

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/lru"
	"repro/internal/relstore"
	"repro/internal/sqlx"
	"repro/internal/trace"
)

// Overview is the structured header of a deal (Figure 6's Overview tab).
type Overview struct {
	DealID        string
	Customer      string
	Industry      string
	Consultant    string // outsourcing consultant, e.g. TPI
	Geography     string
	Country       string
	TermStart     string // ISO date, e.g. "2006-01-05"
	TermMonths    int
	TCVBand       string // display band, e.g. "50 to 100M"
	International bool
	Repository    string // workbook repository path
}

// TowerScope is one service tower in a deal's scope with its significance
// (the CPE's occurrence-derived weight; Figure 5 orders towers by it).
type TowerScope struct {
	Tower        string
	SubTower     string
	Significance float64
}

// Contact is one person on the deal's People tab.
type Contact struct {
	Name      string
	Email     string
	Phone     string
	Org       string
	Role      string // raw role text from documents
	Category  string // normalized: core deal team, delivery team, client team...
	Validated bool   // confirmed against the personnel directory
}

// Deal is a full synopsis.
type Deal struct {
	Overview      Overview
	Towers        []TowerScope
	People        []Contact
	WinStrategies []string
	ClientRefs    []string
	// TechSolutions maps tower name -> technical solution overview text.
	TechSolutions map[string]string
}

// ErrNotFound is returned when a deal is absent.
var ErrNotFound = errors.New("synopsis: deal not found")

// Store persists synopses. Create with NewStore.
type Store struct {
	conn *sqlx.Conn
	// ins holds insert's six statements, prepared once, by text.
	ins map[string]*sqlx.Insert
	// puts, deletes and loads count Put, Delete and Load calls (Writes).
	puts, deletes, loads atomic.Uint64
	// gen counts mutations (Put, Delete) and memoMu orders a reader's
	// insert-if-unchanged against a writer's bump-and-remove (memo.go). gen
	// is not a cache key: a write removes the entries it changed, no more.
	gen    atomic.Uint64
	memoMu sync.Mutex
	// getMemo caches assembled Deal values by ID: Get issues six relational
	// queries, and the search presentation layer asks for every ranked
	// activity's synopsis on every search. Values are deep-cloned on both
	// sides of the cache boundary, so callers may mutate what they receive.
	getMemo *lru.Cache[string, Deal]
	// searchMemo caches Search answers by canonical query encoding.
	searchMemo *lru.Cache[string, memoEntry]
	dropped    atomic.Uint64 // see MemoDropped
	midGet     func()        // tests only: runs between Get's first two statements
}

// The memo bounds: entries are one assembled synopsis, and one answer per
// form query (the form vocabulary is small; a few hundred cover it).
const getMemoSize, searchMemoSize = 512, 256

// schemaStmts creates the context tables; names mirror the paper's "set of
// tables in DB2 database as part of the corresponding business context".
var schemaStmts = []string{
	`CREATE TABLE deals (
		id TEXT PRIMARY KEY,
		customer TEXT,
		industry TEXT,
		consultant TEXT,
		geography TEXT,
		country TEXT,
		term_start TEXT,
		term_months INT,
		tcv_band TEXT,
		international BOOL,
		repository TEXT
	)`,
	`CREATE TABLE deal_towers (
		deal_id TEXT NOT NULL,
		tower TEXT NOT NULL,
		subtower TEXT,
		significance FLOAT NOT NULL
	)`,
	`CREATE INDEX deal_towers_by_deal ON deal_towers (deal_id)`,
	`CREATE INDEX deal_towers_by_tower ON deal_towers (tower)`,
	`CREATE TABLE contacts (
		deal_id TEXT NOT NULL,
		name TEXT NOT NULL,
		email TEXT,
		phone TEXT,
		org TEXT,
		role TEXT,
		category TEXT,
		validated BOOL
	)`,
	`CREATE INDEX contacts_by_deal ON contacts (deal_id)`,
	`CREATE INDEX contacts_by_name ON contacts (name)`,
	`CREATE TABLE win_strategies (deal_id TEXT NOT NULL, strategy TEXT NOT NULL)`,
	`CREATE INDEX win_by_deal ON win_strategies (deal_id)`,
	`CREATE TABLE client_refs (deal_id TEXT NOT NULL, reference TEXT NOT NULL)`,
	`CREATE INDEX refs_by_deal ON client_refs (deal_id)`,
	`CREATE TABLE tech_solutions (deal_id TEXT NOT NULL, tower TEXT NOT NULL, overview TEXT NOT NULL)`,
	`CREATE INDEX tech_by_deal ON tech_solutions (deal_id)`,
}

// The statements insert issues, one INSERT per table. These constants, Get's
// and Search's, clearDeal and schemaStmts are every statement the store
// issues; sqlx plans a SELECT once per text and the store prepares each INSERT
// once, so a fixed repertoire stays parsed. census_test.go lists them all: it
// is the specification of the SQL sqlx accepts.
const (
	insertDeal     = `INSERT INTO deals VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`
	insertTower    = `INSERT INTO deal_towers VALUES (?, ?, ?, ?)`
	insertContact  = `INSERT INTO contacts VALUES (?, ?, ?, ?, ?, ?, ?, ?)`
	insertStrategy = `INSERT INTO win_strategies VALUES (?, ?)`
	insertRef      = `INSERT INTO client_refs VALUES (?, ?)`
	insertSolution = `INSERT INTO tech_solutions VALUES (?, ?, ?)`
)

// NewStore creates the context tables in db and returns the store.
func NewStore(db *relstore.DB) (*Store, error) {
	conn := sqlx.Open(db)
	for _, stmt := range schemaStmts {
		if _, err := conn.Exec(stmt); err != nil {
			return nil, fmt.Errorf("synopsis: schema: %w", err)
		}
	}
	s := &Store{
		conn:       conn,
		ins:        map[string]*sqlx.Insert{},
		getMemo:    lru.New[string, Deal](getMemoSize),
		searchMemo: lru.New[string, memoEntry](searchMemoSize),
	}
	for _, text := range []string{insertDeal, insertTower, insertContact, insertStrategy, insertRef, insertSolution} {
		ins, err := conn.Prepare(text)
		if err != nil {
			return nil, fmt.Errorf("synopsis: prepare: %w", err)
		}
		s.ins[text] = ins
	}
	return s, nil
}

// Conn exposes the SQL connection for directed queries by the core search
// layer.
func (s *Store) Conn() *sqlx.Conn { return s.conn }

// Put upserts a complete deal synopsis. A Put that fails leaves the deal
// absent, never partly written.
func (s *Store) Put(d Deal) error {
	id := d.Overview.DealID
	if id == "" {
		return errors.New("synopsis: empty deal id")
	}
	s.puts.Add(1)
	defer s.invalidate(id, &d)
	// Replace wholesale: the offline analysis regenerates synopses.
	if err := s.deleteDeal(id); err != nil {
		return err
	}
	if err := s.insert(d); err != nil {
		// Take out the rows insert did write.
		return errors.Join(err, s.deleteDeal(id))
	}
	return nil
}

// ErrNotEmpty is Load's refusal of a store that already holds a deal.
var ErrNotEmpty = errors.New("synopsis: load into a store that holds deals")

// Load fills an empty store with the deals in order: what a Put of each
// would leave, without Put's DELETE of rows that cannot exist yet, so a bulk
// ingest costs time linear in the deals. A store holding any deal is refused
// with ErrNotEmpty; use Put to replace deals.
func (s *Store) Load(deals []Deal) error {
	s.loads.Add(1)
	n, err := s.conn.DB().RowCount("deals")
	if err != nil {
		return fmt.Errorf("synopsis: load: %w", err)
	}
	if n > 0 {
		return fmt.Errorf("%w (%d)", ErrNotEmpty, n)
	}
	for _, d := range deals {
		if d.Overview.DealID == "" {
			return errors.New("synopsis: empty deal id")
		}
	}
	for _, d := range deals {
		err := s.insert(d)
		s.invalidate(d.Overview.DealID, &d)
		if err != nil {
			return err
		}
	}
	return nil
}

// insert writes one deal's rows, which must not exist yet.
func (s *Store) insert(d Deal) error {
	id, o := d.Overview.DealID, d.Overview
	_, err := s.ins[insertDeal].Exec(
		o.DealID, o.Customer, o.Industry, o.Consultant, o.Geography, o.Country,
		o.TermStart, int64(o.TermMonths), o.TCVBand, o.International, o.Repository)
	if err != nil {
		return fmt.Errorf("synopsis: put deal: %w", err)
	}
	for _, tw := range d.Towers {
		if _, err := s.ins[insertTower].Exec(
			id, tw.Tower, tw.SubTower, tw.Significance); err != nil {
			return fmt.Errorf("synopsis: put tower: %w", err)
		}
	}
	for _, p := range d.People {
		if _, err := s.ins[insertContact].Exec(
			id, p.Name, p.Email, p.Phone, p.Org, p.Role, p.Category, p.Validated); err != nil {
			return fmt.Errorf("synopsis: put contact: %w", err)
		}
	}
	for _, w := range d.WinStrategies {
		if _, err := s.ins[insertStrategy].Exec(id, w); err != nil {
			return fmt.Errorf("synopsis: put strategy: %w", err)
		}
	}
	for _, r := range d.ClientRefs {
		if _, err := s.ins[insertRef].Exec(id, r); err != nil {
			return fmt.Errorf("synopsis: put reference: %w", err)
		}
	}
	// In tower order, so equal deals leave byte-identical snapshots.
	towers := make([]string, 0, len(d.TechSolutions))
	for tower := range d.TechSolutions {
		towers = append(towers, tower)
	}
	sort.Strings(towers)
	for _, tower := range towers {
		if _, err := s.ins[insertSolution].Exec(id, tower, d.TechSolutions[tower]); err != nil {
			return fmt.Errorf("synopsis: put solution: %w", err)
		}
	}
	return nil
}

// Writes counts the store's write calls since it was created: each Put,
// Delete and Load counts once, however many rows it touches.
type Writes struct{ Puts, Deletes, Loads uint64 }

// Writes reports the write calls made so far.
func (s *Store) Writes() Writes {
	return Writes{Puts: s.puts.Load(), Deletes: s.deletes.Load(), Loads: s.loads.Load()}
}

// Delete removes a deal's synopsis entirely (idempotent).
func (s *Store) Delete(id string) error {
	s.deletes.Add(1)
	defer s.invalidate(id, nil)
	return s.deleteDeal(id)
}

// clearDeal holds the statements that remove one deal, a fixed text per
// table.
var clearDeal = [...]struct{ table, stmt string }{
	{"deals", `DELETE FROM deals WHERE id = ?`},
	{"deal_towers", `DELETE FROM deal_towers WHERE deal_id = ?`},
	{"contacts", `DELETE FROM contacts WHERE deal_id = ?`},
	{"win_strategies", `DELETE FROM win_strategies WHERE deal_id = ?`},
	{"client_refs", `DELETE FROM client_refs WHERE deal_id = ?`},
	{"tech_solutions", `DELETE FROM tech_solutions WHERE deal_id = ?`},
}

func (s *Store) deleteDeal(id string) error {
	for _, c := range clearDeal {
		if _, err := s.conn.Exec(c.stmt, id); err != nil {
			return fmt.Errorf("synopsis: clear %s: %w", c.table, err)
		}
	}
	return nil
}

// Get loads a full deal synopsis. Results are memoized until the deal is
// next written, so repeated lookups of a slow-changing deal cost a map probe
// instead of six relational queries.
func (s *Store) Get(id string) (Deal, error) {
	if d, ok := s.getMemo.Get(id); ok {
		return cloneDeal(d), nil
	}
	gen := s.gen.Load()
	d, err := s.getUncached(id)
	if err != nil {
		return Deal{}, err
	}
	s.memoize(gen, func() { s.getMemo.Put(id, cloneDeal(d)) })
	return d, nil
}

// cloneDeal deep-copies a synopsis so cache and caller cannot alias: Deal
// carries slices and a map, and presentation layers receive a pointer.
func cloneDeal(d Deal) Deal {
	out := d
	out.Towers = append([]TowerScope(nil), d.Towers...)
	out.People = append([]Contact(nil), d.People...)
	out.WinStrategies = append([]string(nil), d.WinStrategies...)
	out.ClientRefs = append([]string(nil), d.ClientRefs...)
	out.TechSolutions = make(map[string]string, len(d.TechSolutions))
	for k, v := range d.TechSolutions {
		out.TechSolutions[k] = v
	}
	return out
}

// The statements Get issues, one per table, and DealIDs'.
const (
	getDeal = `SELECT id, customer, industry, consultant, geography, country,
		term_start, term_months, tcv_band, international, repository FROM deals WHERE id = ?`
	getTowers = `SELECT tower, subtower, significance FROM deal_towers
		WHERE deal_id = ? ORDER BY significance DESC, tower`
	getPeople = `SELECT name, email, phone, org, role, category, validated
		FROM contacts WHERE deal_id = ? ORDER BY category, name`
	getStrategies = `SELECT strategy FROM win_strategies WHERE deal_id = ? ORDER BY strategy`
	getRefs       = `SELECT reference FROM client_refs WHERE deal_id = ? ORDER BY reference`
	getSolutions  = `SELECT tower, overview FROM tech_solutions WHERE deal_id = ?`
	listDeals     = `SELECT id FROM deals ORDER BY id`
)

func (s *Store) getUncached(id string) (Deal, error) {
	row, err := s.conn.QueryOne(getDeal, id)
	if err != nil {
		return Deal{}, err
	}
	if row == nil {
		return Deal{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	d := Deal{Overview: Overview{
		DealID:        text(row[0]),
		Customer:      text(row[1]),
		Industry:      text(row[2]),
		Consultant:    text(row[3]),
		Geography:     text(row[4]),
		Country:       text(row[5]),
		TermStart:     text(row[6]),
		TermMonths:    int(integer(row[7])),
		TCVBand:       text(row[8]),
		International: boolean(row[9]),
		Repository:    text(row[10]),
	}, TechSolutions: map[string]string{}}
	if s.midGet != nil {
		s.midGet()
	}

	towers, err := s.conn.Query(getTowers, id)
	if err != nil {
		return Deal{}, err
	}
	for _, r := range towers.Data {
		d.Towers = append(d.Towers, TowerScope{Tower: text(r[0]), SubTower: text(r[1]), Significance: float(r[2])})
	}
	people, err := s.conn.Query(getPeople, id)
	if err != nil {
		return Deal{}, err
	}
	for _, r := range people.Data {
		d.People = append(d.People, Contact{
			Name: text(r[0]), Email: text(r[1]), Phone: text(r[2]), Org: text(r[3]),
			Role: text(r[4]), Category: text(r[5]), Validated: boolean(r[6]),
		})
	}
	wins, err := s.conn.Query(getStrategies, id)
	if err != nil {
		return Deal{}, err
	}
	for _, r := range wins.Data {
		d.WinStrategies = append(d.WinStrategies, text(r[0]))
	}
	refs, err := s.conn.Query(getRefs, id)
	if err != nil {
		return Deal{}, err
	}
	for _, r := range refs.Data {
		d.ClientRefs = append(d.ClientRefs, text(r[0]))
	}
	sols, err := s.conn.Query(getSolutions, id)
	if err != nil {
		return Deal{}, err
	}
	for _, r := range sols.Data {
		d.TechSolutions[text(r[0])] = text(r[1])
	}
	return d, nil
}

// DealIDs lists all stored deals, sorted.
func (s *Store) DealIDs() ([]string, error) {
	rows, err := s.conn.Query(listDeals)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, text(r[0]))
	}
	return out, nil
}

// Query is the form-based synopsis query of the paper's Figure 8: every
// field is optional; set fields conjoin.
type Query struct {
	Tower      string // canonical tower or sub-tower name
	SubTower   string
	Industry   string
	Consultant string
	Geography  string
	Country    string
	// PersonName / PersonOrg search the contact list ("with these people").
	PersonName string
	PersonOrg  string
	// RestrictTo, when non-empty, limits candidates to these deal IDs
	// (used when access control has pre-filtered).
	RestrictTo []string
}

// Empty reports whether no criteria are set.
func (q Query) Empty() bool {
	return q.Tower == "" && q.SubTower == "" && q.Industry == "" && q.Consultant == "" &&
		q.Geography == "" && q.Country == "" && q.PersonName == "" && q.PersonOrg == ""
}

// Hit is one scored deal from the synopsis search.
type Hit struct {
	DealID string
	// Score aggregates criterion matches; tower matches contribute their
	// significance so Figure 5's ordering (most-significant tower first)
	// falls out of the ranking.
	Score float64
	// MatchedTowers lists the deal's towers that satisfied the tower
	// criterion, ordered by significance.
	MatchedTowers []string
}

// SearchCtx is SearchCached without the flag.
func (s *Store) SearchCtx(ctx context.Context, q Query) ([]Hit, error) {
	hits, _, err := s.SearchCached(ctx, q)
	return hits, err
}

// Search is SearchCtx outside any request: no span, no fault injector.
func (s *Store) Search(q Query) ([]Hit, error) { return s.SearchCtx(context.Background(), q) }

// SearchCached executes the synopsis query (steps 2 and 4 of the paper's
// Figure 1) and reports whether the memo served it, recording a trace span
// when ctx carries one: the hit count, whether candidates were
// pre-restricted, whether the answer was memoized.
func (s *Store) SearchCached(ctx context.Context, q Query) ([]Hit, bool, error) {
	_, sp := trace.StartSpan(ctx, "synopsis.query")
	hits, cached, err := s.search(ctx, q)
	if sp != nil {
		sp.SetInt("hits", len(hits))
		sp.SetBool("restricted", len(q.RestrictTo) > 0)
		sp.SetBool("cached", cached)
		if err != nil {
			sp.Set("error", err.Error())
		}
		sp.End()
	}
	return hits, cached, err
}

// search answers q from the memo or, past the store's fault-injection
// boundary (site "synopsis.search": injected errors, delay and
// partial-harvest rules, standing in for a failing DB2), from the SQL path.
// The full answer is memoized before a partial-harvest rule truncates it, so
// an injected fault ends with the rule that injected it.
func (s *Store) search(ctx context.Context, q Query) ([]Hit, bool, error) {
	key := q.key()
	if e, ok := s.searchMemo.Get(key); ok {
		return cloneHits(e.hits), true, nil
	}
	if err := fault.Inject(ctx, fault.SiteSynopsisSearch); err != nil {
		return nil, false, fmt.Errorf("synopsis: query: %w", err)
	}
	gen := s.gen.Load()
	hits, err := s.searchUncached(q)
	if err != nil {
		return nil, false, err
	}
	q.RestrictTo = slices.Clone(q.RestrictTo)
	s.memoize(gen, func() { s.searchMemo.Put(key, memoEntry{q, cloneHits(hits)}) })
	if keep := fault.Keep(ctx, fault.SiteSynopsisSearch, len(hits)); keep < len(hits) {
		hits = hits[:keep]
	}
	return hits, false, nil
}

// The directed queries Search issues, one per set criterion.
const (
	searchTowerSub = `SELECT deal_id, tower, significance FROM deal_towers
		WHERE tower = ? AND subtower = ? ORDER BY significance DESC`
	searchSub = `SELECT deal_id, tower, significance FROM deal_towers
		WHERE subtower = ? ORDER BY significance DESC`
	searchTower = `SELECT deal_id, tower, significance FROM deal_towers
		WHERE tower = ? ORDER BY significance DESC`

	searchIndustry   = `SELECT id FROM deals WHERE industry = ?`
	searchConsultant = `SELECT id FROM deals WHERE consultant = ?`
	searchGeography  = `SELECT id FROM deals WHERE geography = ?`
	searchCountry    = `SELECT id FROM deals WHERE country = ?`

	searchPersonName    = `SELECT deal_id, validated FROM contacts WHERE name LIKE ?`
	searchPersonOrg     = `SELECT deal_id, validated FROM contacts WHERE org LIKE ?`
	searchPersonNameOrg = `SELECT deal_id, validated FROM contacts WHERE name LIKE ? AND org LIKE ?`
)

// searchUncached is the synopsis query's one evaluator: a set of directed SQL
// queries whose intersection forms the candidate set, scored per criterion.
func (s *Store) searchUncached(q Query) ([]Hit, error) {
	type cand struct {
		score   float64
		matched []string
		hits    int
	}
	cands := map[string]*cand{}
	criteria := 0

	merge := func(ids map[string]float64, towers map[string][]string) {
		criteria++
		for id, sc := range ids {
			c := cands[id]
			if c == nil {
				c = &cand{}
				cands[id] = c
			}
			c.score += sc
			c.hits++
			if towers != nil {
				c.matched = append(c.matched, towers[id]...)
			}
		}
	}

	if q.Tower != "" || q.SubTower != "" {
		ids := map[string]float64{}
		towers := map[string][]string{}
		var rows *sqlx.Rows
		var err error
		switch {
		case q.Tower != "" && q.SubTower != "":
			rows, err = s.conn.Query(searchTowerSub, q.Tower, q.SubTower)
		case q.SubTower != "":
			rows, err = s.conn.Query(searchSub, q.SubTower)
		default:
			rows, err = s.conn.Query(searchTower, q.Tower)
		}
		if err != nil {
			return nil, err
		}
		for _, r := range rows.Data {
			id := text(r[0])
			ids[id] += float(r[2])
			towers[id] = append(towers[id], text(r[1]))
		}
		merge(ids, towers)
	}

	simple := []struct{ stmt, val string }{
		{searchIndustry, q.Industry},
		{searchConsultant, q.Consultant},
		{searchGeography, q.Geography},
		{searchCountry, q.Country},
	}
	for _, c := range simple {
		if c.val == "" {
			continue
		}
		rows, err := s.conn.Query(c.stmt, c.val)
		if err != nil {
			return nil, err
		}
		ids := map[string]float64{}
		for _, r := range rows.Data {
			ids[text(r[0])] = 1
		}
		merge(ids, nil)
	}

	if q.PersonName != "" || q.PersonOrg != "" {
		// LIKE ignores case (and lowers its pattern once per execution), so
		// neither side needs LOWER.
		var rows *sqlx.Rows
		var err error
		switch {
		case q.PersonName != "" && q.PersonOrg != "":
			rows, err = s.conn.Query(searchPersonNameOrg, "%"+q.PersonName+"%", "%"+q.PersonOrg+"%")
		case q.PersonOrg != "":
			rows, err = s.conn.Query(searchPersonOrg, "%"+q.PersonOrg+"%")
		default:
			rows, err = s.conn.Query(searchPersonName, "%"+q.PersonName+"%")
		}
		if err != nil {
			return nil, err
		}
		ids := map[string]float64{}
		for _, r := range rows.Data {
			sc := 1.0
			if boolean(r[1]) {
				sc = 1.2 // directory-validated contacts are stronger evidence
			}
			if sc > ids[text(r[0])] {
				ids[text(r[0])] = sc
			}
		}
		merge(ids, nil)
	}

	if criteria == 0 {
		return nil, nil
	}

	restrict := map[string]bool{}
	for _, id := range q.RestrictTo {
		restrict[id] = true
	}

	hits := make([]Hit, 0, len(cands))
	for id, c := range cands {
		if c.hits < criteria {
			continue // conjunction: every set criterion must match
		}
		if len(restrict) > 0 && !restrict[id] {
			continue
		}
		hits = append(hits, Hit{DealID: id, Score: c.score, MatchedTowers: c.matched})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].DealID < hits[j].DealID
	})
	return hits, nil
}

// value accessors tolerate NULLs.
func text(v relstore.Value) string {
	s, _ := v.(string)
	return s
}

func integer(v relstore.Value) int64 {
	n, _ := v.(int64)
	return n
}

func float(v relstore.Value) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	}
	return 0
}

func boolean(v relstore.Value) bool {
	b, _ := v.(bool)
	return b
}
