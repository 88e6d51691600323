package eil

// Cluster is the sharded deployment of EIL: the corpus is partitioned by
// hashed deal ID into N self-contained System shards (each with its own
// index, synopsis store, and durability), and every query fans out through
// a scatter-gather core.Engine coordinator. Because a deal's documents and
// synopsis always live on the same shard, the sharded search produces the
// same activity rankings as one monolithic System over the same corpus —
// the differential suite in shard_test.go holds it to that.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/access"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Cluster is a sharded EIL instance ready to answer queries. Its embedded
// front's Engine is the scatter-gather coordinator: a core.Engine whose
// backends are the shards.
type Cluster struct {
	searchFront
	// Shards are the per-partition systems, in shard order. Their slots
	// never change after construction; mutating methods route by the same
	// hash the searches use.
	Shards []*System
}

// ShardName is shard i as operators read it: breaker keys, metric labels,
// and readiness check names ("index:shard-2").
func ShardName(i int) string { return fmt.Sprintf("shard-%d", i) }

// ShardKey is shard i as files and the wire protocol name it: the snapshot
// subdirectory and the replication handshake's shard field, zero-padded so
// directory listings sort in shard order.
func ShardKey(i int) string { return fmt.Sprintf("shard-%04d", i) }

// shardDir returns shard i's snapshot directory under the cluster root.
func shardDir(dir string, i int) string { return filepath.Join(dir, ShardKey(i)) }

// clusterManifestName is the cluster-level manifest file naming the shard
// count; each shard keeps its own durable snapshot store underneath.
const clusterManifestName = "cluster.json"

// clusterManifestFormat versions the manifest payload.
const clusterManifestFormat = 1

type clusterManifest struct {
	Format int `json:"format"`
	Shards int `json:"shards"`
}

// IngestSharded runs the offline pipeline once per shard: documents are
// partitioned by hashed deal ID (deal-less documents by path), each
// partition is ingested in parallel into its own System, and the returned
// Cluster's coordinator engine fans searches out across them. All shards
// share one metrics registry, tracer, access controller, and directory.
func IngestSharded(docs []*docmodel.Document, n int, opts Options) (*Cluster, error) {
	return IngestShardedFrom(&analysis.SliceReader{Docs: docs}, n, opts)
}

// chanReader adapts a bounded channel to analysis.CollectionReader, so a
// shard pipeline can pull documents as the router produces them.
type chanReader struct {
	ch  <-chan *docmodel.Document
	err *error // router's terminal error, readable only after ch closes
}

func (r *chanReader) Next() (*docmodel.Document, error) {
	d, ok := <-r.ch
	if !ok {
		if *r.err != nil {
			return nil, *r.err
		}
		return nil, io.EOF
	}
	return d, nil
}

// IngestShardedFrom is IngestSharded reading from any CollectionReader,
// streaming: a router goroutine pulls documents one at a time and hands
// each to its owning shard over a small bounded channel, while every shard
// runs its ingest pipeline concurrently pulling from its channel. Beyond
// what the shards retain, peak memory is the channel buffers plus each
// shard pipeline's read-ahead window (64 documents per worker, see
// analysis.Pipeline.Run) — a 500k-document corpus never exists as a slice,
// which is what lets the synth streaming generator feed a production-scale
// sharded ingest directly. On a 2-CPU box, streaming the C103 corpus
// (103,519 documents) into two shards peaked at 465 MB RSS for a retained
// heap of 263 MB; when each pipeline first read its whole input into a
// slice, the same ingest peaked at 870 MB.
func IngestShardedFrom(reader analysis.CollectionReader, n int, opts Options) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("eil: shard count %d < 1", n)
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	perShard := workers / n
	if perShard < 1 {
		perShard = 1
	}

	// The buffer absorbs routing skew (a run of documents for one deal all
	// target the same shard) without letting any shard run far ahead.
	const shardBuf = 64
	chans := make([]chan *docmodel.Document, n)
	var readErr error
	readers := make([]*chanReader, n)
	for i := range chans {
		chans[i] = make(chan *docmodel.Document, shardBuf)
		readers[i] = &chanReader{ch: chans[i], err: &readErr}
	}

	shards := make([]*System, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sopts := opts
			sopts.Workers = perShard
			shards[i], errs[i] = IngestFrom(readers[i], sopts)
			// Keep draining after a pipeline failure so the router can
			// never block forever on this shard's channel.
			for range chans[i] {
			}
		}(i)
	}

	// Route on this goroutine: the source reader sees single-goroutine
	// pulls, exactly like the monolithic pipeline gives it. Writing
	// readErr before closing the channels publishes it to the chanReaders
	// (channel close is the synchronization edge).
	for {
		d, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = fmt.Errorf("eil: read: %w", err)
			break
		}
		if d == nil {
			break
		}
		chans[core.ShardForDoc(d.DealID, d.Path, n)] <- d
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("eil: shard %d: %w", i, err)
		}
	}
	return newCluster(shards, opts.Access, opts.Metrics, opts.Tracer, opts.DisableScoping), nil
}

// newCluster wires N ingested or restored shard systems into a serving
// cluster: one coordinator engine whose backends are each shard's synopsis
// store and live (compaction-swappable) document engine.
func newCluster(shards []*System, ctl *access.Controller, metrics *obs.Registry, tracer *trace.Tracer, disableScoping bool) *Cluster {
	backends := make([]core.ShardBackend, len(shards))
	for i, s := range shards {
		backends[i] = core.ShardBackend{
			Name:     ShardName(i),
			Synopses: s.Synopses,
			Docs:     s.siapi,
		}
	}
	tax := shards[0].Taxonomy
	return &Cluster{
		searchFront: searchFront{
			Engine: &core.Engine{
				Backends:       backends,
				Access:         ctl,
				Tax:            tax,
				DisableScoping: disableScoping,
				Metrics:        metrics,
			},
			Taxonomy: tax,
			Access:   ctl,
			Metrics:  metrics,
			Tracer:   tracer,
		},
		Shards: shards,
	}
}

// shardFor returns the shard system owning dealID.
func (c *Cluster) shardFor(dealID string) *System {
	return c.Shards[core.ShardFor(dealID, len(c.Shards))]
}

// AddDocuments splits the batch by shard and applies each sub-batch to its
// owning shard. Sub-batches are independent (disjoint deals), so a failure
// in one shard leaves the others' sub-batches fully applied; the error
// names the failing shard.
func (c *Cluster) AddDocuments(docs []*docmodel.Document) error {
	n := len(c.Shards)
	parts := make([][]*docmodel.Document, n)
	for _, d := range docs {
		i := core.ShardForDoc(d.DealID, d.Path, n)
		parts[i] = append(parts[i], d)
	}
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		if err := c.Shards[i].AddDocuments(part); err != nil {
			return fmt.Errorf("eil: shard %d: %w", i, err)
		}
	}
	return nil
}

// RemoveDeal withdraws an activity from its owning shard.
func (c *Cluster) RemoveDeal(dealID string) error {
	return c.shardFor(dealID).RemoveDeal(dealID)
}

// Compact rebuilds every shard's index without tombstones. Each swap is
// atomic per shard; searches during Compact see each shard either before
// or after its swap, both of which answer identically. The error names
// the first shard whose compaction was refused.
func (c *Cluster) Compact() error {
	for i, s := range c.Shards {
		if err := s.Compact(); err != nil {
			return fmt.Errorf("eil: shard %d: %w", i, err)
		}
	}
	return nil
}

// writeClusterManifest persists the cluster manifest naming the shard
// count: a cluster's saves and a cluster replica's start write it alike.
func writeClusterManifest(dir string, shards int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("eil: cluster manifest: %w", err)
	}
	err := durable.WriteFileAtomic(nil, filepath.Join(dir, clusterManifestName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(clusterManifest{Format: clusterManifestFormat, Shards: shards})
	})
	if err != nil {
		return fmt.Errorf("eil: cluster manifest: %w", err)
	}
	return nil
}

// Save persists the whole cluster under dir: the cluster manifest plus one
// durable snapshot store per shard (shard-NNNN subdirectories).
func (c *Cluster) Save(dir string) error {
	_, err := c.Checkpoint(dir)
	return err
}

// Checkpoint is Save returning each shard's committed generation. Shards
// checkpoint independently; a failure aborts with the earlier shards
// already committed (their stores are self-consistent — LoadCluster loads
// each shard's last committed generation).
func (c *Cluster) Checkpoint(dir string) ([]uint64, error) {
	if err := writeClusterManifest(dir, len(c.Shards)); err != nil {
		return nil, err
	}
	gens := make([]uint64, len(c.Shards))
	for i, s := range c.Shards {
		gen, err := s.Checkpoint(shardDir(dir, i))
		if err != nil {
			return nil, fmt.Errorf("eil: shard %d: %w", i, err)
		}
		gens[i] = gen
	}
	return gens, nil
}

// EnableWAL attaches a write-ahead journal to every shard, rooted in its
// snapshot subdirectory, so cluster updates are crash-durable per shard.
func (c *Cluster) EnableWAL(dir string, syncEvery int) error {
	if err := writeClusterManifest(dir, len(c.Shards)); err != nil {
		return err
	}
	for i, s := range c.Shards {
		if err := s.EnableWAL(shardDir(dir, i), syncEvery); err != nil {
			return fmt.Errorf("eil: shard %d: %w", i, err)
		}
	}
	return nil
}

// CloseWAL detaches every shard's journal.
func (c *Cluster) CloseWAL() error {
	var first error
	for i, s := range c.Shards {
		if err := s.CloseWAL(); err != nil && first == nil {
			first = fmt.Errorf("eil: shard %d: %w", i, err)
		}
	}
	return first
}

// LoadCluster restores a cluster saved with Save: the manifest names the
// shard count, and each shard recovers independently (last good snapshot
// generation plus its journal tail). All shards share one fresh metrics
// registry; the access controller is supplied by the caller.
func LoadCluster(dir string, ctl *access.Controller) (*Cluster, error) {
	raw, err := os.ReadFile(filepath.Join(dir, clusterManifestName))
	if err != nil {
		return nil, fmt.Errorf("eil: load cluster %s: %w", dir, err)
	}
	var m clusterManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("eil: load cluster %s: %w", dir, err)
	}
	if m.Format != clusterManifestFormat {
		return nil, fmt.Errorf("eil: load cluster %s: unsupported manifest format %d", dir, m.Format)
	}
	if m.Shards < 1 {
		return nil, errors.New("eil: load cluster: manifest names no shards")
	}
	metrics := obs.NewRegistry()
	shards := make([]*System, m.Shards)
	for i := range shards {
		sys, err := loadSystemWith(shardDir(dir, i), ctl, metrics)
		if err != nil {
			return nil, fmt.Errorf("eil: shard %d: %w", i, err)
		}
		shards[i] = sys
	}
	return newCluster(shards, ctl, metrics, nil, false), nil
}

// IsCluster reports whether dir holds a cluster (vs a single-system)
// snapshot, so CLI tools can auto-detect the layout.
func IsCluster(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, clusterManifestName))
	return err == nil
}
