package serving

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/docmodel"
	"repro/internal/health"
)

// recorder is a Backend that records each write and admin call with its
// arguments and answers err. The embedded Backend is nil: a method the
// tests do not expect to reach panics.
type recorder struct {
	Backend
	calls []string
	err   error
}

func (r *recorder) record(format string, args ...any) error {
	r.calls = append(r.calls, fmt.Sprintf(format, args...))
	return r.err
}

func (r *recorder) AddDocuments(docs []*docmodel.Document) error {
	paths := make([]string, len(docs))
	for i, d := range docs {
		paths[i] = d.Path
	}
	return r.record("AddDocuments(%s)", strings.Join(paths, ","))
}
func (r *recorder) RemoveDeal(dealID string) error { return r.record("RemoveDeal(%s)", dealID) }
func (r *recorder) Compact() error                 { return r.record("Compact()") }
func (r *recorder) EnableWAL(dir string, syncEvery int) error {
	return r.record("EnableWAL(%s,%d)", dir, syncEvery)
}
func (r *recorder) CloseWAL() error       { return r.record("CloseWAL()") }
func (r *recorder) Save(dir string) error { return r.record("Save(%s)", dir) }

// switchCalls drives each write and admin method of a Switch once, with the
// call each should delegate.
var switchCalls = []struct {
	want string
	call func(s *Switch) error
}{
	{"AddDocuments(d1/a.txt,d1/b.txt)", func(s *Switch) error {
		return s.AddDocuments([]*docmodel.Document{{Path: "d1/a.txt"}, {Path: "d1/b.txt"}})
	}},
	{"RemoveDeal(DEAL 7)", func(s *Switch) error { return s.RemoveDeal("DEAL 7") }},
	{"Compact()", func(s *Switch) error { return s.Compact() }},
	{"EnableWAL(/sys,4)", func(s *Switch) error { return s.EnableWAL("/sys", 4) }},
	{"CloseWAL()", func(s *Switch) error { return s.CloseWAL() }},
	{"Save(/snap)", func(s *Switch) error { return s.Save("/snap") }},
}

func TestSwitchDelegatesToCurrentState(t *testing.T) {
	errBackend := errors.New("backend answer")
	for _, c := range switchCalls {
		rec := &recorder{err: errBackend}
		s := NewSwitch(nil, nil, func() (Backend, error) { return rec, nil })
		if err := c.call(&s); err != errBackend {
			t.Errorf("%s returned %v, want the backend's error", c.want, err)
		}
		if len(rec.calls) != 1 || rec.calls[0] != c.want {
			t.Errorf("backend saw %q, want exactly [%s]", rec.calls, c.want)
		}
	}
}

func TestSwitchWithoutStateTouchesNoBackend(t *testing.T) {
	errNoState := errors.New("no state yet")
	for _, c := range switchCalls {
		// The resolver hands back a backend with its error; the Switch must
		// not use it.
		rec := &recorder{}
		s := NewSwitch(nil, nil, func() (Backend, error) { return rec, errNoState })
		if err := c.call(&s); err != errNoState {
			t.Errorf("%s returned %v, want the resolver's error unchanged", c.want, err)
		}
		if len(rec.calls) != 0 {
			t.Errorf("%s reached the backend without a state: %q", c.want, rec.calls)
		}
	}
}

func TestSwitchChecksWithoutState(t *testing.T) {
	s := NewSwitch(nil, nil, func() (Backend, error) { return nil, ErrNotSynced })
	checks := s.Checks(HealthOptions{})
	if len(checks) != 1 || checks[0].Name != "state" || !checks[0].Critical {
		t.Fatalf("checks = %+v, want one critical check named state", checks)
	}
	res := checks[0].Fn()
	if res.Status != health.StatusFailed || !strings.Contains(res.Detail, "initial sync") {
		t.Fatalf("state check = %+v, want failed naming the resolver's error", res)
	}
}
