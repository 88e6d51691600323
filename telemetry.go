package eil

import (
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/serving"
)

// HealthOptions tunes the component checks serving.NewHealth evaluates.
type HealthOptions = serving.HealthOptions

// Every deployment shape is a whole serving.Backend.
var (
	_ serving.Backend = (*System)(nil)
	_ serving.Backend = (*Cluster)(nil)
	_ serving.Backend = (*Follower)(nil)
	_ serving.Backend = (*ClusterFollower)(nil)
	_ serving.Backend = (*HANode)(nil)
)

// stateChecks names the readiness checks for a deployment's current state:
// its shard list (length 1 for a monolith; a nil entry is a replica shard
// whose first state has not landed), the circuits its searches run through,
// and — on a replica — the follower each shard replicates through. Every
// shape's Checks is this function over its own view, called per evaluation.
//
// Criticality mirrors what each failure means for traffic — a missing
// index, a dead journal or a stale replica makes answers wrong or lossy
// (critical, "unready"), while an open breaker or stale snapshot means the
// resilience envelope is already serving reduced answers (non-critical,
// "degraded" — still a 503 so load balancers drain the instance, but the
// verdict names the softer state).
func stateChecks(shards []*System, sharded bool, breakers []core.BreakerStatus, repl []*Follower, opts HealthOptions) []health.Check {
	var checks []health.Check
	for i, s := range shards {
		sfx := ""
		if sharded {
			sfx = ":" + ShardName(i)
		}
		if repl != nil {
			checks = append(checks, health.Check{Name: "repl" + sfx, Critical: true, Fn: repl[i].replCheck})
		}
		checks = append(checks, health.Check{Name: "index" + sfx, Critical: true, Fn: func() health.Result {
			if s == nil || s.Index == nil {
				return health.Failedf("no index attached")
			}
			return health.OKf("%d docs, epoch %d", s.Index.DocCount(), s.Index.Generation())
		}})
		if repl != nil {
			continue // a replica does not journal: its durability is the primary's
		}
		checks = append(checks, health.Check{Name: "wal" + sfx, Critical: true, Fn: func() health.Result {
			enabled, err := s.WALProbe()
			if !enabled {
				return health.OKf("journal not configured")
			}
			if err != nil {
				return health.Failedf("journal not appendable: %v", err)
			}
			return health.OKf("appendable")
		}})
	}

	for _, backend := range []string{core.BackendSynopsis, core.BackendSIAPI} {
		checks = append(checks, health.Check{Name: "breaker:" + backend, Fn: func() health.Result {
			total, open, probing := 0, 0, 0
			for _, b := range breakers {
				if b.Backend != backend {
					continue
				}
				total++
				switch b.State {
				case "open":
					open++
				case "half-open":
					probing++
				}
			}
			switch {
			case total == 0:
				return health.OKf("no engine")
			case open > 0:
				return health.Degradedf("%d of %d %s circuits open; searches degrade around them", open, total, backend)
			case probing > 0:
				return health.Degradedf("%d of %d %s circuits half-open; probing", probing, total, backend)
			default:
				return health.OKf("all %d closed", total)
			}
		}})
	}

	checks = append(checks, health.Check{Name: "snapshots", Fn: func() health.Result {
		// The oldest shard checkpoint is the one a restart would replay the
		// most journal on top of.
		var gen uint64
		var oldest time.Time
		for _, s := range shards {
			if s == nil {
				continue
			}
			g, at := s.LastCheckpoint()
			if oldest.IsZero() || (!at.IsZero() && at.Before(oldest)) {
				gen, oldest = g, at
			}
		}
		if oldest.IsZero() {
			return health.OKf("gen %d; no checkpoint taken by this process", gen)
		}
		age := time.Since(oldest)
		if opts.SnapshotInterval > 0 && age > 3*opts.SnapshotInterval {
			return health.Degradedf("gen %d is %s old (expected every %s)", gen, age.Round(time.Second), opts.SnapshotInterval)
		}
		return health.OKf("gen %d, %s old", gen, age.Round(time.Second))
	}})

	return append(checks, serving.RuntimeChecks(opts)...)
}

// Ready reports that a system or a cluster always has state to answer from
// (serving.Reader); replicas and failover nodes are the shapes that may not.
func (f *searchFront) Ready() bool { return true }

// BreakerStates lists the search engine's circuits, one per hop and shard
// (serving.Telemetry).
func (f *searchFront) BreakerStates() []core.BreakerStatus { return f.Engine.BreakerStates() }

// tune installs the search-side operator settings. Call it before the shape
// serves traffic: searches read the engine's policy unsynchronized.
func (f *searchFront) tune(set serving.Settings) {
	if f.Engine != nil {
		f.Engine.Resilient, f.Engine.Faults = set.Resilience, set.Faults
	}
}

// Checks names the system's readiness checks (serving.Admin).
func (s *System) Checks(opts HealthOptions) []health.Check {
	return stateChecks([]*System{s}, false, s.BreakerStates(), nil, opts)
}

// Tune installs the operator's settings (serving.Admin). Snapshot retention
// is read by checkpoints and by a shipper that may already be serving, so it
// changes under upMu.
func (s *System) Tune(set serving.Settings) {
	s.tune(set)
	s.keepSnapshots(set.SnapshotKeep)
}

func (s *System) keepSnapshots(n int) {
	s.upMu.Lock()
	s.SnapshotKeep = n
	s.upMu.Unlock()
}

// Checks names the cluster's readiness checks: index and journal per shard,
// and breaker checks that report degraded as soon as any shard's circuit is
// not closed, because searches are already serving reduced answers around
// that shard.
func (c *Cluster) Checks(opts HealthOptions) []health.Check {
	return stateChecks(c.Shards, true, c.BreakerStates(), nil, opts)
}

// Tune installs the operator's settings on the coordinator, and snapshot
// retention on every shard, each under its update lock as System.Tune sets
// it.
func (c *Cluster) Tune(set serving.Settings) {
	c.tune(set)
	for _, s := range c.Shards {
		s.keepSnapshots(set.SnapshotKeep)
	}
}
