package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro"
	"repro/internal/access"
	"repro/internal/failover"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/serving"
	"repro/internal/synth"
	"repro/internal/trace"
)

// shapeConfig is the part of the flag set that decides which deployment
// shape this process is.
type shapeConfig struct {
	sysDir     string
	demo       bool
	shards     int
	failover   bool
	replicaOf  string
	replName   string
	replListen string
	walSync    int
	maxLag     uint64
	// lease is -lease-dir and -lease-ttl: where a failover node's elector
	// claims and renews (an empty Dir leaves only manual promotion).
	lease failover.LeaseConfig
	// wal is -wal. writerFlags is set when any other flag that only a writer
	// can honour was given (-demo, -snapshot-interval, -fault-spec,
	// -search-budget); a process that starts as a replica refuses them.
	wal         bool
	writerFlags bool
	ctl         *access.Controller
	tracer      *trace.Tracer
}

// deployment is the shape the flags selected. Everything main does to the
// serving state goes through be; the other fields are what still differs by
// shape once the process is up.
type deployment struct {
	kind string // system | cluster | follower | cluster-follower | failover
	be   serving.Backend
	// writes is where -demo-churn mutations go: the backend itself (a
	// failover node waits out its own promotion window); nil on a replica.
	writes serving.Writer
	// shards is a primary's shard list (length 1 for a monolith) — the
	// positions /api/repl reports; ship starts its replication listener.
	// Both are unset on replicas and failover nodes, which own their streams.
	shards  []*eil.System
	sharded bool
	ship    func(net.Listener, *fault.Injector) (*repl.Shipper, error)
	// replStatus is the /api/repl payload of a replica or failover node.
	replStatus func() any
	// node and elect are set on a failover node: the elector's loop and
	// POST /api/promote (elect.Claim) drive the node's role.
	node  *eil.HANode
	elect *failover.Elector
	// close stops what the shape started beyond the backend's own journal
	// (replication streams, the failover node).
	close func() error
}

// primary reports whether this process may write now: a failover node only
// while it holds the primary role, every other writer always.
func (d *deployment) primary() bool {
	return d.node == nil || d.node.Role() == failover.RolePrimary
}

// selectShape builds the deployment the flags describe. It is the only
// place that branches on shape.
func selectShape(cfg shapeConfig) (*deployment, error) {
	switch {
	case cfg.failover:
		return failoverShape(cfg)
	case cfg.replicaOf != "":
		// Read replica: no local corpus, no journal, no checkpoints of its
		// own — state arrives over the replication stream and persists at
		// the primary's rotation points.
		if cfg.writerFlags || cfg.wal {
			return nil, errors.New("-replica-of is read-only: drop -demo, -wal, -snapshot-interval, -fault-spec, and -search-budget")
		}
		fopts := eil.FollowerOptions{
			Dir:     cfg.sysDir,
			Addr:    cfg.replicaOf,
			Name:    cfg.replName,
			MaxLag:  cfg.maxLag,
			Access:  cfg.ctl,
			Metrics: obs.NewRegistry(),
			Tracer:  cfg.tracer,
			Logf:    log.Printf,
		}
		if cfg.shards > 1 {
			cf, err := eil.StartClusterFollower(cfg.shards, fopts)
			if err != nil {
				return nil, err
			}
			return &deployment{kind: "cluster-follower", be: cf, replStatus: func() any { return cf.Status() }, close: cf.Close}, nil
		}
		f, err := eil.StartFollower(fopts)
		if err != nil {
			return nil, err
		}
		return &deployment{kind: "follower", be: f, replStatus: func() any { return f.Status() }, close: f.Close}, nil
	case cfg.demo && cfg.shards > 1:
		corpus, err := demoCorpus()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		c, err := eil.IngestSharded(corpus.Docs, cfg.shards, eil.Options{Directory: corpus.Directory, Access: cfg.ctl, Tracer: cfg.tracer})
		if err != nil {
			return nil, err
		}
		log.Printf("ingested %d documents into %d shards in %v", docCount(c.Shards), cfg.shards, time.Since(start).Round(time.Millisecond))
		return clusterShape(c), nil
	case cfg.demo:
		corpus, err := demoCorpus()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sys, err := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory, Access: cfg.ctl, Tracer: cfg.tracer})
		if err != nil {
			return nil, err
		}
		log.Printf("ingested %d documents in %v (%.0f docs/sec)",
			sys.Index.DocCount(), time.Since(start).Round(time.Millisecond), sys.Stats.DocsPerSec())
		return systemShape(sys), nil
	case eil.IsCluster(cfg.sysDir):
		c, err := eil.LoadCluster(cfg.sysDir, cfg.ctl)
		if err != nil {
			return nil, err
		}
		c.Tracer = cfg.tracer
		log.Printf("loaded %d documents from %d-shard cluster %s", docCount(c.Shards), len(c.Shards), cfg.sysDir)
		return clusterShape(c), nil
	default:
		if cfg.shards > 1 {
			log.Printf("note: -shards ignored; %s holds a single-system snapshot", cfg.sysDir)
		}
		sys, err := eil.LoadSystem(cfg.sysDir, cfg.ctl)
		if err != nil {
			return nil, err
		}
		sys.Tracer = cfg.tracer
		log.Printf("loaded %d documents from %s", sys.Index.DocCount(), cfg.sysDir)
		return systemShape(sys), nil
	}
}

func systemShape(sys *eil.System) *deployment {
	return &deployment{kind: "system", be: sys, writes: sys, shards: []*eil.System{sys}, ship: sys.ServeReplication}
}

func clusterShape(c *eil.Cluster) *deployment {
	return &deployment{kind: "cluster", be: c, writes: c, shards: c.Shards, sharded: true, ship: c.ServeReplication}
}

func demoCorpus() (*synth.Corpus, error) {
	log.Printf("generating demo corpus...")
	return synth.Generate(synth.SmallConfig())
}

func docCount(shards []*eil.System) int {
	total := 0
	for _, s := range shards {
		total += s.Index.DocCount()
	}
	return total
}

// failoverShape starts a failover-managed node: an HANode owns the role
// (primary, follower, fenced) and every transition; its elector's lease
// loop (or a manual POST /api/promote) drives promotions.
func failoverShape(cfg shapeConfig) (*deployment, error) {
	if cfg.shards > 1 || eil.IsCluster(cfg.sysDir) {
		return nil, errors.New("-failover supports single-system deployments (drop -shards)")
	}
	if cfg.replListen == "" {
		return nil, errors.New("-failover requires -repl-listen: the address this node ships from while primary (use an explicit host, e.g. 127.0.0.1:9301, so peers can dial it)")
	}
	name := cfg.replName
	if name == "" {
		name = fmt.Sprintf("node-%d", os.Getpid())
	}
	haOpts := eil.HANodeOptions{
		Name:       name,
		Dir:        cfg.sysDir,
		ListenAddr: cfg.replListen,
		SyncEvery:  cfg.walSync,
		MaxLag:     cfg.maxLag,
		Access:     cfg.ctl,
		Logf:       log.Printf,
	}
	var node *eil.HANode
	if cfg.replicaOf != "" {
		if cfg.writerFlags {
			return nil, errors.New("-failover -replica-of starts read-only: drop -demo, -snapshot-interval, -fault-spec, and -search-budget")
		}
		var err error
		if node, err = eil.NewFollowerHANode(cfg.replicaOf, haOpts); err != nil {
			return nil, err
		}
		log.Printf("failover node %q: following %s into %s; promotable", name, cfg.replicaOf, cfg.sysDir)
	} else {
		var seed *eil.System
		var err error
		if cfg.demo {
			corpus, gerr := demoCorpus()
			if gerr != nil {
				return nil, gerr
			}
			seed, err = eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory, Access: cfg.ctl, Tracer: cfg.tracer})
		} else {
			seed, err = eil.LoadSystem(cfg.sysDir, cfg.ctl)
		}
		if err != nil {
			return nil, err
		}
		seed.Tracer = cfg.tracer
		haOpts.Metrics = seed.Registry()
		if node, err = eil.NewPrimaryHANode(seed, haOpts); err != nil {
			return nil, err
		}
		if seed.FencedBy() != 0 {
			log.Printf("WARNING: failover node %q was fenced by epoch %d; serving reads only until repointed at the current primary", name, seed.FencedBy())
		} else {
			log.Printf("failover node %q: primary at epoch %d, shipping on %s", name, seed.FenceEpoch(), node.ReplAddr())
		}
	}
	elect := &failover.Elector{Node: node, Lease: cfg.lease, Logf: log.Printf}
	status := func() any {
		st := node.Status()
		return struct {
			failover.NodeStatus
			Writes    writeStatus           `json:"writes"`
			Followers []repl.FollowerStatus `json:"followers,omitempty"`
		}{st, writeStatus{st.Role == failover.RolePrimary, st.Epoch, node.Waiters()}, node.ShipperStatus()}
	}
	return &deployment{kind: "failover", be: node, writes: node, replStatus: status, node: node, elect: elect, close: node.Close}, nil
}

// writeStatus is a failover node's write side in its /api/repl report:
// whether it is the write primary, its epoch, and how many writes wait out
// its promotion window.
type writeStatus struct {
	HasPrimary bool   `json:"has_primary"`
	Epoch      uint64 `json:"epoch"`
	Waiters    int    `json:"waiters"`
}

// shardPosition is one shard's replication position in the primary's
// /api/repl report.
type shardPosition struct {
	Shard string `json:"shard,omitempty"`
	Gen   uint64 `json:"gen"`
	Seq   uint64 `json:"seq"`
}

// primaryReport assembles a shipping primary's /api/repl payload: the
// journal position of every shipped shard plus each connected follower's
// view.
func (d *deployment) primaryReport(shipper *repl.Shipper) any {
	positions := make([]shardPosition, len(d.shards))
	for i, s := range d.shards {
		_, seq := s.ReplPosition()
		positions[i] = shardPosition{Gen: s.Generation(), Seq: seq}
		if d.sharded {
			positions[i].Shard = eil.ShardKey(i)
		}
	}
	var epoch uint64
	if !d.sharded {
		epoch = d.shards[0].FenceEpoch()
	}
	return struct {
		Role      string                `json:"role"`
		Epoch     uint64                `json:"epoch"`
		Positions []shardPosition       `json:"positions"`
		Followers []repl.FollowerStatus `json:"followers"`
	}{"primary", epoch, positions, shipper.Status()}
}

// generations describes the shard list's committed snapshot generations for
// the log ("" on shapes that do not expose one).
func (d *deployment) generations() string {
	if len(d.shards) == 0 {
		return ""
	}
	gens := make([]uint64, len(d.shards))
	for i, s := range d.shards {
		gens[i] = s.Generation()
	}
	return fmt.Sprintf(" (generations %v)", gens)
}
