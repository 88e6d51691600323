// Package annotators implements EIL's annotator library: the four primitive
// annotator types of the paper's Table 1 (regular-expression-based,
// heuristics-based, ontology-based, classifier-based) plus their composite
// assembly, and the domain annotators built from them — the social
// networking annotator of Figure 3, the services-scope annotator, and the
// win-strategy / technology-solution / contract-facts extractors. The
// collection-level half (§3.4's Collection Processing Engines) lives in
// cpe.go.
package annotators

import (
	"fmt"
	"regexp"

	"repro/internal/analysis"
	"repro/internal/classify"
)

// Annotation types produced by this package.
const (
	TypeScope        = "scope"        // services in scope: tower/subtower
	TypePerson       = "person"       // social networking: contacts
	TypeWinStrategy  = "winstrategy"  // win strategy statements
	TypeTechSolution = "techsolution" // technology solution overviews
	TypeFact         = "fact"         // overview facts: customer, industry...
	TypeClientRef    = "clientref"    // client references
	TypeDocClass     = "docclass"     // classifier-based document labels
)

// Regex is the regular-expression-based primitive (Table 1: "simple; easy
// to implement" but of "limited expressiveness"). Each match emits one span
// annotation of Type with the whole match in feature "value" and one feature
// per named capture group.
type Regex struct {
	ID      string
	Type    string
	Pattern *regexp.Regexp
	// Extra adds constant features to every match (for example the fact
	// key a pattern extracts).
	Extra map[string]string
	// Confidence for emitted annotations; 0 means 1.
	Confidence float64
}

// Name implements analysis.Annotator.
func (r *Regex) Name() string { return r.ID }

// Process implements analysis.Annotator.
func (r *Regex) Process(cas *analysis.CAS) error {
	if r.Pattern == nil {
		return fmt.Errorf("annotators: %s has no pattern", r.ID)
	}
	body := cas.Doc.Body
	names := r.Pattern.SubexpNames()
	for _, m := range r.Pattern.FindAllStringSubmatchIndex(body, -1) {
		features := map[string]string{"value": body[m[0]:m[1]]}
		for gi, gname := range names {
			if gi == 0 || gname == "" {
				continue
			}
			if m[2*gi] >= 0 {
				features[gname] = body[m[2*gi]:m[2*gi+1]]
			}
		}
		for k, v := range r.Extra {
			features[k] = v
		}
		cas.Add(analysis.Annotation{
			Type: r.Type, Begin: m[0], End: m[1],
			Features: features, Confidence: r.Confidence, Source: r.ID,
		})
	}
	return nil
}

// Heuristic is the heuristics-based primitive: arbitrary domain logic
// ("quickly identifying relevant pieces of information" at the cost of being
// "ad-hoc; highly dependent on the data sets").
type Heuristic struct {
	ID string
	Fn func(cas *analysis.CAS) error
}

// Name implements analysis.Annotator.
func (h *Heuristic) Name() string { return h.ID }

// Process implements analysis.Annotator.
func (h *Heuristic) Process(cas *analysis.CAS) error { return h.Fn(cas) }

// DocClassifier is the classifier-based primitive: a trained text model
// labels whole documents ("capturing complex & abstract concepts", quality
// "highly dependent on the training data set"). It emits one document-level
// TypeDocClass annotation with features "label" and "posterior".
type DocClassifier struct {
	ID    string
	Model *classify.Classifier
	// MinPosterior suppresses labels below this confidence.
	MinPosterior float64
}

// Name implements analysis.Annotator.
func (d *DocClassifier) Name() string { return d.ID }

// Process implements analysis.Annotator.
func (d *DocClassifier) Process(cas *analysis.CAS) error {
	label, p, err := d.Model.Classify(cas.Doc.Title + "\n" + cas.Doc.Body)
	if err != nil {
		return fmt.Errorf("annotators: %s: %w", d.ID, err)
	}
	if p < d.MinPosterior {
		return nil
	}
	cas.Add(analysis.Annotation{
		Type: TypeDocClass, Begin: -1, End: -1,
		Features:   map[string]string{"label": label, "posterior": fmt.Sprintf("%.4f", p)},
		Confidence: p,
		Source:     d.ID,
	})
	return nil
}

// Composite assembles primitives into one flow (Table 1's composite type);
// it is a thin alias over the framework aggregate so callers can stay within
// this package's vocabulary.
func Composite(id string, steps ...analysis.Annotator) analysis.Annotator {
	return &analysis.Aggregate{ID: id, Steps: steps}
}

// Common field patterns shared by the regex annotators.
var (
	// EmailPattern matches internet email addresses, capturing local part
	// and organization domain label.
	EmailPattern = regexp.MustCompile(`(?P<local>[A-Za-z0-9._%-]+)@(?P<orgdomain>[A-Za-z0-9-]+)\.(?:[A-Za-z]{2,4})`)
	// PhonePattern matches North-American-style phone numbers as they
	// appear in rosters (555-0100, 555 0100, (914) 555-0100).
	PhonePattern = regexp.MustCompile(`(?:\(\d{3}\)\s*|\d{3}[-\s])?\d{3}[-\s]\d{4}`)
	// DatePattern matches ISO dates.
	DatePattern = regexp.MustCompile(`\d{4}-\d{2}-\d{2}`)
)
