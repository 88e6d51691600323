package health

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestNilRegistryIsReady(t *testing.T) {
	var r *Registry
	rep := r.Evaluate()
	if !rep.Ready() || rep.Verdict != VerdictReady {
		t.Fatalf("nil registry verdict = %q, want ready", rep.Verdict)
	}
	r.RegisterSource(fixed(Check{Name: "ignored", Critical: true, Fn: func() Result { return Failedf("boom") }})) // must not panic
}

// fixed is a source that always names the same checks.
func fixed(checks ...Check) func() []Check {
	return func() []Check { return checks }
}

func TestRollupVerdicts(t *testing.T) {
	cases := []struct {
		name     string
		results  []Result
		critical []bool
		want     Verdict
	}{
		{"all ok", []Result{OKf("a"), OKf("b")}, []bool{true, false}, VerdictReady},
		{"non-critical degraded", []Result{OKf("a"), Degradedf("slow")}, []bool{true, false}, VerdictDegraded},
		{"non-critical failed", []Result{OKf("a"), Failedf("down")}, []bool{true, false}, VerdictDegraded},
		{"critical degraded is not unready", []Result{Degradedf("wobbly"), OKf("b")}, []bool{true, false}, VerdictDegraded},
		{"critical failed", []Result{Failedf("dead"), OKf("b")}, []bool{true, false}, VerdictUnready},
	}
	for _, c := range cases {
		r := NewRegistry(nil)
		var checks []Check
		for i, res := range c.results {
			res := res
			checks = append(checks, Check{Name: string(rune('a' + i)), Critical: c.critical[i], Fn: func() Result { return res }})
		}
		r.RegisterSource(fixed(checks...))
		rep := r.Evaluate()
		if rep.Verdict != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, rep.Verdict, c.want)
		}
	}
}

func TestCausesNameFailingChecks(t *testing.T) {
	r := NewRegistry(nil)
	r.RegisterSource(fixed(
		Check{Name: "good", Fn: func() Result { return OKf("fine") }},
		Check{Name: "bad", Critical: true, Fn: func() Result { return Failedf("disk gone") }},
	))
	rep := r.Evaluate()
	if len(rep.Causes) != 1 || !strings.HasPrefix(rep.Causes[0], "bad:") {
		t.Fatalf("causes = %v, want exactly [bad: disk gone]", rep.Causes)
	}
	if len(rep.Checks) != 2 {
		t.Fatalf("checks = %d, want 2 (passing checks stay in the report)", len(rep.Checks))
	}
}

func TestPanickingCheckBecomesFailed(t *testing.T) {
	r := NewRegistry(nil)
	r.RegisterSource(fixed(Check{Name: "explosive", Critical: true, Fn: func() Result { panic("kaboom") }}))
	rep := r.Evaluate()
	if rep.Verdict != VerdictUnready {
		t.Fatalf("verdict = %q, want unready (critical check panicked)", rep.Verdict)
	}
	if !strings.Contains(rep.Causes[0], "kaboom") {
		t.Fatalf("causes = %v, want the panic value surfaced", rep.Causes)
	}
}

func TestEvaluatePublishesGauges(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRegistry(reg)
	r.RegisterSource(fixed(Check{Name: "wobbly", Fn: func() Result { return Degradedf("meh") }}))
	r.Evaluate()
	if v := reg.Gauge("eil_health_check", "check", "wobbly").Value(); v != 1 {
		t.Fatalf("eil_health_check{wobbly} = %v, want 1 (degraded)", v)
	}
	if v := reg.Gauge("eil_health_status").Value(); v != 1 {
		t.Fatalf("eil_health_status = %v, want 1 (degraded)", v)
	}
}
