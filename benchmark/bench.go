package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	eil "repro"
	"repro/internal/analysis"
	"repro/internal/annotators"
	"repro/internal/crawler"
	"repro/internal/docparse"
	"repro/internal/durable"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/textproc"
	"repro/internal/web"
)

const (
	// procs is the reference box's nproc: GOMAXPROCS, ingest workers and the
	// client goroutine count are all pinned to it so a run means the same
	// thing on any host.
	procs       = 2
	pageLimit   = 20 // one result page
	batchDocs   = 8  // documents per AddDocuments call
	hotRequests = 64 // hot population size: fits every cache in the program
	zipfS       = 1.3
	// mixedRate is the open loop's arrival rate: 35 search, 10 keyword and 5
	// AddDocuments batches per second, below the knee measured on the seed.
	mixedRate     = 50.0
	removeEvery   = 25 // write_durable: every 25th update removes a held-out deal
	probeRequests = 50 // fixed probe set compared before crash and after recovery
	tailBatches   = 32 // updates journaled after the last checkpoint, for recovery to replay
	recoveries    = 3  // LoadSystem calls per crash; recover_s is their median
)

// workloads in BENCHMARK.json order.
var workloads = []string{"read_hot", "read_cold", "mixed", "write_durable"}

// bench is one run of one workload.
type bench struct {
	sc     scale
	wl     string
	seed   int64
	window time.Duration
	traced bool
	outDir string
	start  time.Time // process start: set-up time counts from here

	work    string // this run's scratch directory under outDir
	main    *node  // the system the workload runs against
	h       http.Handler
	pools   *pools
	pop     *population
	held    *heldSource
	scratch *durable.WAL
	rec     *recorder

	mu    sync.Mutex // guards logs, notes, m.failed and node bookkeeping (mixed has two writers)
	logs  []*spanLog
	notes []string

	counting bool               // inside counted: a timed part is running
	delta    map[string]float64 // program counters' movement over the timed parts
	walBytes int64              // journal bytes written in the timed parts
	addBytes int64              // document text added in the timed parts
	m        measures
}

// node is one EIL system the run writes to, with the bookkeeping the
// durability check needs: what has been acknowledged.
type node struct {
	b         *bench
	sys       *eil.System
	dir       string // snapshot store + journal; "" when no journal is attached
	docs      int
	text      int64 // raw document text held
	added     []*heldDeal
	sinceCkpt int // journal records since the last checkpoint
}

// heldDeal tracks a held-out deal the run has added, so it can be removed.
type heldDeal struct {
	id    string
	docs  int
	bytes int64
}

// measures is everything a run observes; metrics.go turns it into numbers.
type measures struct {
	setupS      float64
	heapMB      float64
	ingestDocsS float64
	reads       []float64 // ms
	readWall    float64   // s the read clients ran
	writes      []float64 // ms
	writeDocs   int
	writeWall   float64 // s the writers ran, generation and replay pauses excluded
	checkpoints []float64
	recoverS    float64
	diskRatio   float64
	snapBytes   int64
	attempted   int
	failed      int

	respBytes   []float64
	classUS     [3][]float64 // web.search µs by concept-only / scoped text / unscoped
	refUS       []float64    // web.search µs in the untraced reference slice
	late        []float64    // ms the open loop started each arrival late
	inflightMax int
}

// fail records why the run's answers are not all correct.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.failed++
	if len(b.notes) < 20 {
		b.notes = append(b.notes, fmt.Sprintf(format, args...))
	}
}

// run executes the workload end to end.
func (b *bench) run() (err error) {
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	if b.work, err = os.MkdirTemp(b.outDir, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)
	if b.traced {
		b.rec = &recorder{origin: time.Now()}
	}
	b.delta = map[string]float64{}
	if err := b.setup(); err != nil {
		return err
	}
	defer func() {
		if cerr := b.scratch.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}()

	side := complement(b.window)
	switch b.wl {
	case "read_hot", "read_cold":
		b.reference(side / 2)
		b.counted(b.main, func() error { b.readers(b.window-side, modeTimed); return nil })
		b.release()
		err = b.sideLife(side, true)
	case "mixed":
		if b.traced {
			// The untraced reference has to be mixed traffic too: hot reads
			// alone would be compared with reads that mostly miss.
			if err = b.openLoop(side/2, modeRef); err != nil {
				break
			}
		}
		if err = b.counted(b.main, func() error { return b.openLoop(b.window, modeTimed) }); err != nil {
			break
		}
		if err = b.main.sys.CloseWAL(); err != nil {
			break
		}
		b.release()
		err = b.sideLife(side, false)
	case "write_durable":
		err = b.counted(b.main, func() error {
			ws, err := b.main.writer(b.window-side, (b.window-side)/6, true)
			b.m.takeWrites(ws)
			return err
		})
		if err != nil {
			break
		}
		// The updates changed which deals satisfy what: re-check, untimed,
		// which population requests still pin their target to the page.
		if err = repin(b.main.sys, b.pop.all()); err != nil {
			break
		}
		b.warm()
		b.reference(side / 2)
		b.counted(b.main, func() error { b.readers(side, modeTimed); return nil })
		if err = b.main.tail(); err != nil {
			break
		}
		err = b.main.crashAndRecover(b.pools)
	}
	if err != nil {
		return err
	}
	if b.traced {
		return writeSpans(b.spanFile(), b.logs)
	}
	return nil
}

// complement is the share of the window given to what the workload does not
// otherwise exercise, so that every end-to-end metric has samples on every
// workload: closed-loop readers after write_durable's updates, and on the
// other three a short write-side life of a second, C14-sized node (see
// sideLife).
func complement(window time.Duration) time.Duration {
	return min(window/4, 3*time.Second)
}

// release drops the main system once its part is over, so the side life
// runs in a heap of its own size and not in the garbage collector's shadow
// of a C103 system nothing uses any more.
func (b *bench) release() {
	b.main, b.h, b.pools, b.pop = nil, nil, nil, nil
	runtime.GC()
}

// counted runs a timed part of the window against n and accumulates how far
// it moved the program's counters and how many journal bytes it wrote.
func (b *bench) counted(n *node, fn func() error) error {
	before := counters(n.sys.Metrics)
	wal0 := n.walSize()
	b.counting = true
	err := fn()
	b.counting = false
	for name, v := range counters(n.sys.Metrics) {
		b.delta[name] += v - before[name]
	}
	// On top of what checkpoints inside fn truncated (see checkpoint).
	b.walBytes += n.walSize() - wal0
	return err
}

func (n *node) walSize() int64 {
	if n.dir == "" {
		return 0
	}
	return fileSize(filepath.Join(n.dir, durable.WALName))
}

func (b *bench) spanFile() string {
	return filepath.Join(b.outDir, fmt.Sprintf("spans-%s-%d.jsonl", b.wl, b.seed))
}

// newLog returns a span log for one goroutine, nil when the run is untraced.
func (b *bench) newLog() *spanLog {
	if b.rec == nil {
		return nil
	}
	l := b.rec.log()
	b.mu.Lock()
	b.logs = append(b.logs, l)
	b.mu.Unlock()
	return l
}

// build ingests a corpus into a fresh node; journal attaches a write-ahead
// journal (which first commits a snapshot for it to extend).
func (b *bench) build(cfg synth.Config, name string, journal bool) (*node, ingested, error) {
	in, err := ingest(cfg)
	if err != nil {
		return nil, in, err
	}
	n := &node{b: b, sys: in.sys, docs: in.docs, text: in.bytes}
	if journal {
		n.dir = filepath.Join(b.work, name)
		if err := n.sys.EnableWAL(n.dir, 1); err != nil {
			return nil, in, err
		}
	}
	return n, in, nil
}

// setup builds the system under test and everything the run draws on, and
// warms the read population; all of it counts as set-up time. The cheap
// corpus is built several times and the median build reported; C103 once,
// since a second ingest would cost more than the timed window. The warm-up
// runs once, against the last build.
func (b *bench) setup() error {
	cfg, repeats, journal := b.sc.c103, 1, b.wl == "mixed"
	if b.wl == "write_durable" {
		cfg, repeats, journal = b.sc.c14, b.sc.c14Setups, true
	}
	before := time.Since(b.start)
	var rates, builds []float64
	for i := 0; i < repeats; i++ {
		if b.main != nil {
			if err := b.main.sys.CloseWAL(); err != nil {
				return err
			}
			b.main, b.h, b.pools, b.pop = nil, nil, nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		n, in, err := b.build(cfg, fmt.Sprintf("sys-%d", i), journal)
		if err != nil {
			return err
		}
		b.main = n
		rates = append(rates, float64(in.docs)/in.wall.Seconds())
		b.h = web.HandlerFor(n.sys)
		if b.pools, err = buildPools(n.sys); err != nil {
			return err
		}
		b.pop = newPopulation(b.pools)
		builds = append(builds, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	b.warm()
	b.held = newHeldSource(b.seed + 1)
	// The scratch journal stands in for the system's own in the traced
	// run's durable.append span: same filesystem, same sync policy.
	scratch := filepath.Join(b.work, "scratch")
	if err := os.Mkdir(scratch, 0o755); err != nil {
		return err
	}
	var err error
	if b.scratch, err = durable.CreateWAL(scratch, 1, durable.WALOptions{SyncEvery: 1}); err != nil {
		return err
	}
	sort.Float64s(rates)
	sort.Float64s(builds)
	b.m.ingestDocsS = median(rates)
	b.m.setupS = before.Seconds() + median(builds) + time.Since(t0).Seconds()
	b.m.heapMB = heapMB()
	return nil
}

// sideLife gives the workloads that never checkpoint, crash or recover the
// end-to-end metrics of a node's write-side life: a second node over the
// C14 corpus is ingested, journaled, updated by the closed-loop writer for d
// with a checkpoint every d/6, crashed and recovered, with the same
// durability check write_durable ends on. C14 rather than the workload's own
// C103 because one C103 checkpoint writes ≈280 MB: it costs seconds and its
// time is the sandbox disk's, not the program's. Workloads without writes of
// their own (takeWrites) take the writer's latencies as their write metrics.
func (b *bench) sideLife(d time.Duration, takeWrites bool) error {
	n, _, err := b.build(b.sc.c14, "side", true)
	if err != nil {
		return err
	}
	p, err := buildPools(n.sys)
	if err != nil {
		return err
	}
	err = b.counted(n, func() error {
		ws, err := n.writer(d, d/6, false)
		if takeWrites {
			b.m.takeWrites(ws)
		}
		return err
	})
	if err != nil {
		return err
	}
	if err := n.tail(); err != nil {
		return err
	}
	return n.crashAndRecover(p)
}

// tail leaves the journal in the same state before every crash: one more
// checkpoint, then exactly tailBatches updates for recovery to replay.
// Without it recovery time would depend on where in the checkpoint cycle the
// window happened to end.
func (n *node) tail() error {
	log := n.b.newLog()
	n.b.m.attempted += 1 + tailBatches
	if err := n.checkpoint(log); err != nil {
		return err
	}
	flow := annotators.NewEILFlow(n.sys.Taxonomy)
	for i := 0; i < tailBatches; i++ {
		batch, err := n.b.held.next()
		if err != nil {
			return err
		}
		if _, _, err := n.add(batch, log, flow); err != nil {
			return err
		}
	}
	return nil
}

// warm serves every population request once — which also proves each one's
// ground truth before anything is timed — then runs the workload's readers
// untimed for the scale's warm-up period.
func (b *bench) warm() {
	c := b.newClient(0, modeWarm)
	if b.wl != "read_cold" {
		for _, r := range b.pop.all() {
			if _, ok := c.read(r); !ok {
				b.fail("warm-up: %s misses %s", r.url, r.target)
			}
		}
	}
	b.readers(b.sc.warm, modeWarm)
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// readMode says what a group of readers is for.
type readMode int

const (
	modeWarm  readMode = iota // untimed
	modeRef                   // traced run only: untraced reads for trace.overhead_ratio
	modeTimed                 // the measured window
)

// reference runs a short untraced read slice in a traced run, so the traced
// web.search median has an untraced one from the same process to compare to.
func (b *bench) reference(d time.Duration) {
	if b.traced {
		b.readers(d, modeRef)
	}
}

// readers runs procs closed-loop read clients for d.
func (b *bench) readers(d time.Duration, mode readMode) {
	clients := make([]*client, procs)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range clients {
		c := b.newClient(i, mode)
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := c.next()
				if svc, ok := c.read(r); ok {
					c.reads = append(c.reads, ms(svc))
				} else {
					b.fail("%s misses %s", r.url, r.target)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, c := range clients {
		b.merge(c, mode)
	}
	if mode == modeTimed {
		b.m.readWall += wall
	}
}

// merge folds a finished client's observations into the run's.
func (b *bench) merge(c *client, mode readMode) {
	switch mode {
	case modeRef:
		b.m.refUS = append(b.m.refUS, c.searchUS...)
	case modeTimed:
		b.m.attempted += c.attempted
		b.m.reads = append(b.m.reads, c.reads...)
		b.m.writes = append(b.m.writes, c.writes...)
		b.m.late = append(b.m.late, c.late...)
		b.m.respBytes = append(b.m.respBytes, c.respBytes...)
		for i := range c.classUS {
			b.m.classUS[i] = append(b.m.classUS[i], c.classUS[i]...)
		}
		if c.inflightMax > b.m.inflightMax {
			b.m.inflightMax = c.inflightMax
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// writeStats is what one closed-loop writer observed.
type writeStats struct {
	lat  []float64 // ms per AddDocuments call
	docs int
	wall float64 // s of writer time
}

func (m *measures) takeWrites(ws writeStats) {
	m.writes = append(m.writes, ws.lat...)
	m.writeDocs += ws.docs
	m.writeWall += ws.wall
}

// writer runs the closed-loop single writer against n for d of its own
// time: batches of held-out documents through AddDocuments, a checkpoint
// each time ckptEvery has passed and, when removes is set, a RemoveDeal of
// the earliest held-out deal every removeEvery-th update. Generating the
// next batch and, in the traced run, replaying a batch's children are
// pauses, not writer time.
func (n *node) writer(d, ckptEvery time.Duration, removes bool) (writeStats, error) {
	b := n.b
	log := b.newLog()
	flow := annotators.NewEILFlow(n.sys.Taxonomy)
	var ws writeStats
	start := time.Now()
	lastCkpt := start
	var paused time.Duration
	for ops := 1; time.Since(start)-paused < d; ops++ {
		b.m.attempted++
		if time.Since(lastCkpt) >= ckptEvery {
			if err := n.checkpoint(log); err != nil {
				return ws, err
			}
			lastCkpt = time.Now()
			continue
		}
		if removes && ops%removeEvery == 0 && len(n.added) > 1 {
			if err := n.removeOldest(log); err != nil {
				return ws, err
			}
			continue
		}
		spent := b.held.spent
		batch, err := b.held.next()
		if err != nil {
			return ws, err
		}
		paused += b.held.spent - spent
		svc, replay, err := n.add(batch, log, flow)
		if err != nil {
			return ws, err
		}
		paused += replay
		ws.lat = append(ws.lat, ms(svc))
		ws.docs += len(batch.docs)
		b.addBytes += batch.bytes
	}
	ws.wall = (time.Since(start) - paused).Seconds()
	return ws, nil
}

// add applies one held-out batch through AddDocuments and returns how long
// the call took to acknowledge. In the traced run it then replays the
// batch's pure or scratch-state children beside the eil.add span and
// returns how long that took.
func (n *node) add(batch *heldBatch, log *spanLog, flow analysis.Annotator) (svc, replay time.Duration, err error) {
	b := n.b
	docs := batch.documents()
	log.request()
	parent, svc := log.timed("eil.add", 0, func() { err = n.sys.AddDocuments(docs) })
	if err != nil {
		return 0, 0, fmt.Errorf("add %s: %w", batch.deal, err)
	}
	b.mu.Lock()
	n.docs += len(docs)
	n.text += batch.bytes
	n.sinceCkpt++
	if batch.first {
		n.added = append(n.added, &heldDeal{id: batch.deal, docs: len(docs), bytes: batch.bytes})
	} else {
		for i := len(n.added) - 1; i >= 0; i-- {
			if n.added[i].id == batch.deal {
				n.added[i].docs += len(docs)
				n.added[i].bytes += batch.bytes
				break
			}
		}
	}
	b.mu.Unlock()
	if log == nil {
		return svc, 0, nil
	}

	t0 := time.Now()
	for _, d := range batch.docs {
		i := log.begin("docparse.parse", parent)
		_, perr := docparse.Parse(d.doc.Path, d.raw)
		log.end(i)
		if perr != nil {
			return 0, 0, fmt.Errorf("replay parse %s: %w", d.doc.Path, perr)
		}
	}
	cases := make([]*analysis.CAS, len(docs))
	for k, d := range docs {
		cases[k] = analysis.NewCAS(d)
		i := log.begin("analysis.flow", parent)
		perr := flow.Process(cases[k])
		log.end(i)
		if perr != nil {
			return 0, 0, fmt.Errorf("replay analysis %s: %w", d.Path, perr)
		}
	}
	w := &crawler.IndexWriter{Ix: index.New(textproc.DefaultAnalyzer), Workers: procs}
	i := log.begin("index.addbatch", parent)
	for _, cas := range cases {
		if err == nil {
			err = w.Consume(cas)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	log.end(i)
	if err != nil {
		return 0, 0, fmt.Errorf("replay index: %w", err)
	}
	// The journal payload is the batch's documents, gob-encoded.
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(docs); err != nil {
		return 0, 0, err
	}
	i = log.begin("durable.append", parent)
	err = b.scratch.Append(1, payload.Bytes())
	log.end(i)
	if err != nil {
		return 0, 0, fmt.Errorf("replay journal: %w", err)
	}
	return svc, time.Since(t0), nil
}

// removeOldest withdraws the earliest held-out deal still present.
func (n *node) removeOldest(log *spanLog) error {
	d := n.added[0]
	var err error
	log.request()
	log.timed("eil.remove", 0, func() { err = n.sys.RemoveDeal(d.id) })
	if err != nil {
		return fmt.Errorf("remove %s: %w", d.id, err)
	}
	n.added = n.added[1:]
	n.docs -= d.docs
	n.text -= d.bytes
	n.sinceCkpt++
	return nil
}

// checkpoint commits a snapshot generation and records how long it took.
// What it truncates from the journal is added to the journal bytes written,
// so the count survives the rotation.
func (n *node) checkpoint(log *spanLog) error {
	b := n.b
	size := n.walSize()
	runtime.GC() // level the heap the encoder starts from; its pauses are not the checkpoint's
	var err error
	log.request()
	_, d := log.timed("eil.checkpoint", 0, func() { _, err = n.sys.Checkpoint(n.dir) })
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	b.m.checkpoints = append(b.m.checkpoints, d.Seconds())
	if b.counting {
		b.walBytes += size - n.walSize()
	}
	n.sinceCkpt = 0
	return nil
}

// arrival is one scheduled operation of the open loop.
type arrival struct {
	due   time.Duration
	req   *request
	batch *heldBatch
}

// openLoop serves seeded Poisson arrivals at mixedRate for d with procs
// workers. Each operation is timed from when it was due, so a stall is
// charged to every arrival that waited behind it. Reads draw from the same
// hot population as read_hot. In modeRef nothing is traced and only the
// web.search service times are kept.
func (b *bench) openLoop(d time.Duration, mode readMode) error {
	sched, err := b.schedule(d, rand.New(rand.NewSource(b.seed*31+7+int64(mode))))
	if err != nil {
		return err
	}

	var next, done atomic.Int64
	errs := make([]error, procs)
	clients := make([]*client, procs)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range clients {
		c := b.newClient(w, mode)
		clients[w] = c
		flow := annotators.NewEILFlow(b.main.sys.Taxonomy)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				a := sched[i]
				if wait := a.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				began := time.Since(start)
				late := began - a.due
				c.late = append(c.late, ms(late))
				due := sort.Search(len(sched), func(k int) bool { return sched[k].due > began })
				if in := due - int(done.Load()); in > c.inflightMax {
					c.inflightMax = in
				}
				if a.batch != nil {
					c.attempted++
					svc, _, err := b.main.add(a.batch, c.log, flow)
					if err != nil {
						errs[w] = err
						return
					}
					c.writes = append(c.writes, ms(late+svc))
					c.docs += len(a.batch.docs)
					c.addBytes += a.batch.bytes
				} else if svc, ok := c.read(a.req); ok {
					c.reads = append(c.reads, ms(late+svc))
				} else {
					b.fail("%s misses %s", a.req.url, a.req.target)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, c := range clients {
		b.merge(c, mode)
	}
	if mode != modeTimed {
		return nil
	}
	for _, c := range clients {
		b.m.writeDocs += c.docs
		b.addBytes += c.addBytes
	}
	b.m.readWall += wall
	b.m.writeWall += wall
	// A queue that is still growing when the arrivals stop means the rate is
	// past the knee and the latencies describe the run length, not the system.
	if tail := sorted(b.m.late[len(b.m.late)*9/10:]); median(tail) > 1000 {
		b.fail("open loop fell behind: the last tenth of arrivals started a median %.0f ms late", median(tail))
	}
	return nil
}

// schedule lays the open loop's arrivals out over d. The seed decides when
// each arrival is due, in what order the operations come and what the
// held-out batches contain; it does not decide how many there are of what.
// A 12 s run is short enough that left to chance its write count alone
// would vary by an eighth and its slowest twentieth would be a different
// handful of requests every time. So: exactly mixedRate·d arrivals, due at
// the times of a Poisson process conditioned on that count (sorted uniform
// draws, whose gaps are the exponential gaps of such a process); in every
// ten, 7 searches, 2 keyword searches and 1 batch in shuffled order; and the
// reads of each endpoint are the zipf distribution's expected counts over
// the hot population, shuffled.
func (b *bench) schedule(d time.Duration, rng *rand.Rand) ([]arrival, error) {
	sched := make([]arrival, int(mixedRate*d.Seconds()))
	for i := range sched {
		sched[i].due = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(sched, func(i, j int) bool { return sched[i].due < sched[j].due })
	kinds := make([]byte, len(sched))
	counts := map[byte]int{}
	for i := range kinds {
		block := []byte("ssssssskkw")
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(x, y int) { block[x], block[y] = block[y], block[x] })
			copy(kinds[i:], block)
		}
		counts[kinds[i]]++
	}
	reads := map[byte][]*request{
		's': zipfMultiset(b.pop.search, counts['s'], rng),
		'k': zipfMultiset(b.pop.keyword, counts['k'], rng),
	}
	for i, k := range kinds {
		if k == 'w' {
			batch, err := b.held.next()
			if err != nil {
				return nil, err
			}
			sched[i].batch = batch
			continue
		}
		sched[i].req, reads[k] = reads[k][0], reads[k][1:]
	}
	return sched, nil
}

// zipfMultiset returns n requests from ranked — each rank as often as the
// zipf distribution (exponent zipfS, as hotDrawer draws it) expects in n
// draws, by largest remainder — in shuffled order.
func zipfMultiset(ranked []*request, n int, rng *rand.Rand) []*request {
	weights := make([]float64, len(ranked))
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -zipfS)
		total += weights[k]
	}
	type share struct {
		rank int
		frac float64
	}
	out := make([]*request, 0, n)
	rest := make([]share, len(ranked))
	for k, w := range weights {
		exact := float64(n) * w / total
		for c := 0; c < int(exact); c++ {
			out = append(out, ranked[k])
		}
		rest[k] = share{k, exact - math.Floor(exact)}
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].frac != rest[j].frac {
			return rest[i].frac > rest[j].frac
		}
		return rest[i].rank < rest[j].rank
	})
	for i := 0; len(out) < n; i++ {
		out = append(out, ranked[rest[i].rank])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// crashAndRecover ends a journaled node's life: the journal holds a tail
// past the last checkpoint, the process dies with a write cut off
// mid-frame, and LoadSystem brings the state back. It checks that nothing
// acknowledged was lost and that a fixed probe set drawn from p is answered
// byte-identically before the crash and after recovery.
func (n *node) crashAndRecover(p *pools) error {
	b := n.b
	log := b.newLog()
	probes := newGenerator(p, 1)
	var set []*request
	for i := 0; i < probeRequests; i++ {
		set = append(set, probes.next())
	}
	before := b.probe(web.HandlerFor(n.sys), set)

	wal := filepath.Join(n.dir, durable.WALName)
	b.m.snapBytes = newestGeneration(n.dir)
	b.m.diskRatio = float64(b.m.snapBytes+fileSize(wal)) / float64(n.text)
	// The write in flight at the crash: a frame header promising more bytes
	// than ever reached the disk.
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	torn := append([]byte{0, 0, 0x10, 0, 0xde, 0xad, 0xbe, 0xef}, bytes.Repeat([]byte{0x5a}, 100)...)
	if _, err := f.Write(torn); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// Recovery is one call; it is made recoveries times over the same
	// crashed directory (it only reads it) and the median reported.
	var rec *eil.System
	var times []float64
	for k := 0; k < recoveries && err == nil; k++ {
		b.m.attempted++
		rec = nil
		runtime.GC()
		log.request()
		_, d := log.timed("eil.load", 0, func() { rec, err = eil.LoadSystem(n.dir, nil) })
		times = append(times, d.Seconds())
	}
	// The crashed system still holds its journal open; release it.
	if cerr := n.sys.CloseWAL(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	b.m.recoverS = median(sorted(times))

	if got := rec.Index.DocCount(); got != n.docs {
		b.fail("recovered %d documents, %d were acknowledged", got, n.docs)
	}
	after := counters(rec.Metrics)
	if after["durable_recovery_events_total{kind=wal_tail}"] != 1 {
		b.fail("the torn journal tail was not dropped exactly once")
	}
	if got := int(after["durable_wal_replay_records_total"]); got != n.sinceCkpt {
		b.fail("recovery replayed %d journal records, %d were acknowledged since the checkpoint", got, n.sinceCkpt)
	}
	for i, body := range b.probe(web.HandlerFor(rec), set) {
		if !bytes.Equal(body, before[i]) {
			b.fail("probe %s answers differently after recovery", set[i].url)
		}
	}
	return nil
}

// probe serves the probe set through a handler and returns the raw bodies.
func (b *bench) probe(h http.Handler, set []*request) [][]byte {
	out := make([][]byte, len(set))
	var w respWriter
	for i, r := range set {
		req, err := http.NewRequest(http.MethodGet, r.url, nil)
		if err != nil {
			b.fail("probe %s: %v", r.url, err)
			continue
		}
		w.reset()
		h.ServeHTTP(&w, req)
		b.m.attempted++
		if !w.ok() {
			b.fail("probe %s: status %d", r.url, w.status)
		}
		out[i] = append([]byte(nil), w.buf.Bytes()...)
	}
	return out
}

// counters flattens the program's exported counters to name{labels} → value.
func counters(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Snapshots() {
		if s.Type != "counter" {
			continue
		}
		name := s.Name
		if len(s.Labels) > 0 {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = k + "=" + s.Labels[k]
			}
			name += "{" + strings.Join(parts, ",") + "}"
		}
		out[name] = s.Value
	}
	return out
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// newestGeneration sums the files of the highest-numbered snapshot
// generation under dir.
func newestGeneration(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	newest := ""
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "gen-") && e.Name() > newest {
			newest = e.Name()
		}
	}
	files, err := os.ReadDir(filepath.Join(dir, newest))
	if newest == "" || err != nil {
		return 0
	}
	var total int64
	for _, f := range files {
		total += fileSize(filepath.Join(dir, newest, f.Name()))
	}
	return total
}
