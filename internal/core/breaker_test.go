package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestBreaker is the circuit breaker's table, written once for both of its
// users: the engine's per-hop circuits (5 failures / 500 ms) and the read
// router's per-node ones (3 failures / 5 s).
func TestBreaker(t *testing.T) {
	errDown := errors.New("down")
	const cooldown = 20 * time.Millisecond
	// open drives a closed breaker to open: threshold failures, the last of
	// which must report the transition.
	open := func(t *testing.T, b *Breaker, threshold int) {
		t.Helper()
		for i := 1; i <= threshold; i++ {
			if !b.Allow() {
				t.Fatalf("failure %d: a closed breaker rejected", i)
			}
			want := ""
			if i == threshold {
				want = BreakerOpen
			}
			if got := b.Record(errDown); got != want {
				t.Fatalf("failure %d of %d: Record = %q, want %q", i, threshold, got, want)
			}
		}
		if b.State() != BreakerOpen || b.Allow() {
			t.Fatalf("after %d failures: state %q, and it must reject", threshold, b.State())
		}
	}
	rows := []struct {
		name      string
		threshold int
		run       func(t *testing.T, b *Breaker)
	}{
		{"half-open admits exactly one probe under concurrency", 3, func(t *testing.T, b *Breaker) {
			open(t, b, 3)
			time.Sleep(cooldown)
			if b.State() != BreakerHalfOpen {
				t.Fatalf("after the cooldown: state %q, want half-open", b.State())
			}
			var admitted atomic.Int64
			var start, wg sync.WaitGroup
			start.Add(1)
			for i := 0; i < 32; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					start.Wait()
					if b.Allow() {
						admitted.Add(1)
					}
				}()
			}
			start.Done()
			wg.Wait()
			if n := admitted.Load(); n != 1 {
				t.Fatalf("%d of 32 concurrent calls admitted to a half-open breaker, want 1", n)
			}
		}},
		{"a failed probe re-opens without re-counting the threshold", 3, func(t *testing.T, b *Breaker) {
			open(t, b, 3)
			time.Sleep(cooldown)
			if !b.Allow() {
				t.Fatal("the probe was rejected")
			}
			if got := b.Record(errDown); got != BreakerOpen {
				t.Fatalf("failed probe: Record = %q, want %q", got, BreakerOpen)
			}
			if b.State() != BreakerOpen || b.Allow() {
				t.Fatalf("after a failed probe: state %q, and it must reject", b.State())
			}
		}},
		{"a success closes it", 3, func(t *testing.T, b *Breaker) {
			open(t, b, 3)
			time.Sleep(cooldown)
			if !b.Allow() {
				t.Fatal("the probe was rejected")
			}
			if got := b.Record(nil); got != BreakerClosed {
				t.Fatalf("successful probe: Record = %q, want %q", got, BreakerClosed)
			}
			if b.State() != BreakerClosed {
				t.Fatalf("after a successful probe: state %q", b.State())
			}
			// Closed again from scratch: opening takes the whole threshold.
			open(t, b, 3)
		}},
		{"threshold < 0 never opens", -1, func(t *testing.T, b *Breaker) {
			for i := 0; i < 100; i++ {
				if !b.Allow() {
					t.Fatalf("call %d rejected", i)
				}
				if got := b.Record(errDown); got != "" {
					t.Fatalf("failure %d: Record = %q", i, got)
				}
			}
			if b.State() != BreakerClosed {
				t.Fatalf("state %q after 100 failures", b.State())
			}
		}},
		{"failures that land after it opened count no second open", 5, func(t *testing.T, b *Breaker) {
			for i := 0; i < 8; i++ {
				if !b.Allow() {
					t.Fatal("a closed breaker rejected")
				}
			}
			var opens atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if b.Record(errDown) == BreakerOpen {
						opens.Add(1)
					}
				}()
			}
			wg.Wait()
			if n := opens.Load(); n != 1 {
				t.Fatalf("8 admitted calls failing reported %d opens, want 1", n)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.run(t, NewBreaker(row.threshold, cooldown))
		})
	}
}

// TestBreakerOpenedCountedOnce: N concurrent failing calls that finish after
// the engine's breaker opened count one search_breaker_opened_total, not one
// per call that saw it open.
func TestBreakerOpenedCountedOnce(t *testing.T) {
	e := newEngine(t)
	e.Metrics = obs.NewRegistry()
	release := make(chan struct{})
	var started, wg sync.WaitGroup
	const calls = 12 // the default threshold is 5
	for i := 0; i < calls; i++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resilientCall(context.Background(), e, BackendSIAPI, &e.Backends[0], func(context.Context) (int, error) {
				started.Done()
				<-release
				return 0, errors.New("down")
			})
		}()
	}
	started.Wait() // every call was admitted while the breaker was closed
	close(release)
	wg.Wait()
	if got := e.BreakerState(BackendSIAPI); got != BreakerOpen {
		t.Fatalf("breaker %q after %d failures", got, calls)
	}
	if n := e.Metrics.Counter("search_breaker_opened_total", "backend", BackendSIAPI).Value(); n != 1 {
		t.Errorf("search_breaker_opened_total = %d after one opening, want 1", n)
	}
	if n := e.Metrics.Counter("search_backend_errors_total", "backend", BackendSIAPI).Value(); n != calls {
		t.Errorf("search_backend_errors_total = %d, want %d", n, calls)
	}
}
