// Package access implements EIL's access-control component (§3.1 of the
// paper). Security and privacy concerns limit what a user sees: a user who
// is not authorized for a data repository still receives the *synopsis* of
// the matching business activity — including the contact list, so they can
// reach the people involved — but not the underlying documents. That
// synopsis-only fallback is the behaviour this package encodes.
package access

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/trace"
)

// Level is what a user may see of a business activity.
type Level int

const (
	// LevelNone hides the activity entirely.
	LevelNone Level = iota
	// LevelSynopsis exposes the extracted business context (synopsis and
	// contacts) but not the documents.
	LevelSynopsis
	// LevelFull exposes synopsis and documents.
	LevelFull
)

// String renders the level for diagnostics.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelSynopsis:
		return "synopsis"
	case LevelFull:
		return "full"
	default:
		return "invalid"
	}
}

// Role is a coarse job role used in grants.
type Role string

// Roles used by the EIL deployment model.
const (
	RoleSales    Role = "sales"    // sales executives: synopsis everywhere, documents where granted
	RoleDelivery Role = "delivery" // delivery teams: their own engagements
	RoleAdmin    Role = "admin"    // system administrators: everything
)

// User is an authenticated principal.
type User struct {
	ID    string
	Name  string
	Roles []Role
}

// HasRole reports whether the user holds the role.
func (u User) HasRole(r Role) bool {
	for _, have := range u.Roles {
		if have == r {
			return true
		}
	}
	return false
}

// ErrDenied is returned when an operation requires a level the user lacks.
var ErrDenied = errors.New("access: denied")

// Controller evaluates access decisions. It is safe for concurrent use.
type Controller struct {
	mu sync.RWMutex
	// base is the default level by role.
	base map[Role]Level
	// grants lifts (user, dealID) to a level; deal "" means all deals.
	grants map[string]map[string]Level
	// restricted marks deals confidential: base levels are capped at
	// LevelSynopsis unless an explicit grant lifts them.
	restricted map[string]bool
}

// NewController returns a controller with the EIL defaults: sales
// executives see synopses of everything; delivery and unknown roles see
// nothing until granted; admins see everything.
func NewController() *Controller {
	return &Controller{
		base: map[Role]Level{
			RoleSales:    LevelSynopsis,
			RoleDelivery: LevelNone,
			RoleAdmin:    LevelFull,
		},
		grants:     map[string]map[string]Level{},
		restricted: map[string]bool{},
	}
}

// Grant lifts a user's level for one deal (or all deals when dealID is "").
// Grants only ever raise access; a grant below the base level is ignored at
// evaluation time.
func (c *Controller) Grant(userID, dealID string, level Level) {
	c.mu.Lock()
	defer c.mu.Unlock()
	byDeal := c.grants[userID]
	if byDeal == nil {
		byDeal = map[string]Level{}
		c.grants[userID] = byDeal
	}
	key := strings.ToLower(dealID)
	if level > byDeal[key] {
		byDeal[key] = level
	}
}

// Restrict marks a deal confidential.
func (c *Controller) Restrict(dealID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.restricted[strings.ToLower(dealID)] = true
}

// LevelFor computes the user's effective level on a deal.
func (c *Controller) LevelFor(u User, dealID string) Level {
	c.mu.RLock()
	defer c.mu.RUnlock()
	level := LevelNone
	for _, r := range u.Roles {
		if b := c.base[r]; b > level {
			level = b
		}
	}
	key := strings.ToLower(dealID)
	if c.restricted[key] && level > LevelSynopsis && !u.HasRole(RoleAdmin) {
		level = LevelSynopsis
	}
	if byDeal := c.grants[u.ID]; byDeal != nil {
		if g := byDeal[key]; g > level {
			level = g
		}
		if g := byDeal[""]; g > level {
			level = g
		}
	}
	return level
}

// TryLevelsFor resolves the user's level for each deal in one traced batch —
// the access-filter stage of Figure 1 step 19. The span records how many
// activities were checked and how many came back invisible. It is the
// fault-injection boundary (site "access.levels") standing in for an
// unreachable entitlement service: the core layer degrades a failed batch to
// the community-safe synopsis tier rather than guessing per-deal grants.
func (c *Controller) TryLevelsFor(ctx context.Context, u User, dealIDs []string) ([]Level, error) {
	_, sp := trace.StartSpan(ctx, "access.levels")
	if err := fault.Inject(ctx, fault.SiteAccessLevels); err != nil {
		if sp != nil {
			sp.Set("error", err.Error())
			sp.End()
		}
		return nil, err
	}
	out := make([]Level, len(dealIDs))
	denied := 0
	for i, id := range dealIDs {
		out[i] = c.LevelFor(u, id)
		if out[i] == LevelNone {
			denied++
		}
	}
	if sp != nil {
		sp.SetInt("checked", len(dealIDs))
		sp.SetInt("denied", denied)
		sp.End()
	}
	return out, nil
}

// CanSeeDocuments reports whether the user may open documents of the deal.
func (c *Controller) CanSeeDocuments(u User, dealID string) bool {
	return c.LevelFor(u, dealID) >= LevelFull
}

// CanSeeSynopsis reports whether the user may see the deal's synopsis.
func (c *Controller) CanSeeSynopsis(u User, dealID string) bool {
	return c.LevelFor(u, dealID) >= LevelSynopsis
}

// FilterDeals partitions dealIDs into those with at least synopsis access,
// returning them sorted, with the subset that also has document access.
func (c *Controller) FilterDeals(u User, dealIDs []string) (synopsis, full []string) {
	for _, id := range dealIDs {
		switch c.LevelFor(u, id) {
		case LevelFull:
			full = append(full, id)
			synopsis = append(synopsis, id)
		case LevelSynopsis:
			synopsis = append(synopsis, id)
		}
	}
	sort.Strings(synopsis)
	sort.Strings(full)
	return synopsis, full
}
