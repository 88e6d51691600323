package repl

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Fault-injection sites on the replication connection. Send faults model
// a partitioned or flaky network between primary and follower; corrupt
// flips a byte in flight so the follower's CRC check has something real
// to catch.
const (
	SiteSend    = "repl.send"
	SiteRecv    = "repl.recv"
	SiteCorrupt = "repl.corrupt"
)

// Source is what a Shipper serves from: the host maps a shard name to its
// ship log and its fencing state, and can cut a transferable snapshot on
// demand.
type Source interface {
	// TailLog returns the ship log for a shard ("" for an unsharded
	// primary). The log must already be live-tapped by the journal path.
	TailLog(shard string) (*Log, error)
	// Snapshot opens the latest snapshot generation for transfer,
	// checkpointing first if the ship log no longer covers the last
	// checkpoint. The caller owns closing the component readers.
	Snapshot(shard string) (*Snapshot, error)
	// EpochInfo reports the shard's fencing state, which decides whether a
	// peer is fenced, told to re-sync, or may tail.
	EpochInfo(shard string) EpochInfo
}

// EpochInfo is a source's fencing state for one shard: the term it is
// currently writing under, and the (previous term, sealed sequence) pair
// describing the promotion that started it — the coordinates the shipper
// uses to tell a safe prefix from a divergent suffix.
type EpochInfo struct {
	Epoch     uint64
	PrevEpoch uint64
	SealedSeq uint64
}

// Snapshot is an open, transferable snapshot generation: its position and
// the raw component containers. Readers are opened before transfer starts,
// so a concurrent checkpoint pruning the generation cannot tear the copy.
type Snapshot struct {
	Gen        uint64
	Seq        uint64
	Components []SnapshotComponent
}

// SnapshotComponent is one raw component container ready to stream.
type SnapshotComponent struct {
	Name string
	Size int64
	R    io.ReadCloser
}

// Close closes every component reader.
func (s *Snapshot) Close() {
	for _, c := range s.Components {
		if c.R != nil {
			_ = c.R.Close()
		}
	}
}

// FollowerStatus is one connected follower as the primary sees it.
type FollowerStatus struct {
	Name        string    `json:"name"`
	Shard       string    `json:"shard,omitempty"`
	Addr        string    `json:"addr"`
	AckGen      uint64    `json:"ack_gen"`
	AckSeq      uint64    `json:"ack_seq"`
	LagRecords  uint64    `json:"lag_records"`
	Snapshotted bool      `json:"snapshotted"` // bootstrapped via full transfer this connection
	ConnectedAt time.Time `json:"connected_at"`
}

// Shipper accepts follower connections and streams each one the snapshot
// and/or journal tail it needs. One Shipper can serve many shards (a
// cluster primary runs a single listener; each follower names its shard
// in the handshake).
type Shipper struct {
	Source  Source
	Metrics *obs.Registry
	Logf    func(format string, args ...any)
	// Faults, when set, wraps every accepted connection in the injection
	// seam (sites repl.send / repl.recv / repl.corrupt).
	Faults *fault.Injector
	// OnFenced, when set, is invoked (once per observation, possibly from
	// several connection goroutines) when a peer's hello proves a newer
	// epoch exists: this shipper is the stale side of a partition and its
	// host must stop accepting writes and demote itself.
	OnFenced func(newerEpoch uint64)

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]*connState
	closed bool
	wg     sync.WaitGroup
}

type connState struct {
	mu          sync.Mutex
	name        string
	shard       string
	addr        string
	ackGen      uint64
	ackSeq      uint64
	headSeq     uint64
	snapshotted bool
	connectedAt time.Time
}

func (sh *Shipper) logf(format string, args ...any) {
	if sh.Logf != nil {
		sh.Logf(format, args...)
	}
}

// heartbeat paces idle MsgPos frames so followers can measure lag even
// with no write traffic.
const heartbeat = 500 * time.Millisecond

// Serve accepts follower connections on lis until Close. It blocks; run
// it on its own goroutine. Accept errors after Close return nil.
func (sh *Shipper) Serve(lis net.Listener) error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return errors.New("repl: shipper closed")
	}
	sh.lis = lis
	if sh.conns == nil {
		sh.conns = make(map[net.Conn]*connState)
	}
	if sh.ctx == nil {
		sh.ctx, sh.cancel = context.WithCancel(context.Background())
	}
	sh.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			sh.mu.Lock()
			closed := sh.closed
			sh.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sh.mu.Lock()
		if sh.closed {
			sh.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		st := &connState{addr: conn.RemoteAddr().String(), connectedAt: time.Now()}
		sh.conns[conn] = st
		sh.wg.Add(1)
		sh.mu.Unlock()
		go func() {
			defer sh.wg.Done()
			sh.serveConn(conn, st)
		}()
	}
}

// Close stops accepting, closes every follower connection, and waits for
// the per-connection goroutines to drain.
func (sh *Shipper) Close() error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil
	}
	sh.closed = true
	lis := sh.lis
	if sh.cancel != nil {
		sh.cancel()
	}
	for conn := range sh.conns {
		_ = conn.Close()
	}
	sh.mu.Unlock()
	if lis != nil {
		_ = lis.Close()
	}
	sh.wg.Wait()
	return nil
}

// Status reports every connected follower.
func (sh *Shipper) Status() []FollowerStatus {
	sh.mu.Lock()
	states := make([]*connState, 0, len(sh.conns))
	for _, st := range sh.conns {
		states = append(states, st)
	}
	sh.mu.Unlock()
	out := make([]FollowerStatus, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		fs := FollowerStatus{
			Name:        st.name,
			Shard:       st.shard,
			Addr:        st.addr,
			AckGen:      st.ackGen,
			AckSeq:      st.ackSeq,
			Snapshotted: st.snapshotted,
			ConnectedAt: st.connectedAt,
		}
		if st.headSeq > st.ackSeq {
			fs.LagRecords = st.headSeq - st.ackSeq
		}
		st.mu.Unlock()
		out = append(out, fs)
	}
	return out
}

func (sh *Shipper) dropConn(conn net.Conn) {
	sh.mu.Lock()
	delete(sh.conns, conn)
	sh.mu.Unlock()
	_ = conn.Close()
}

// serveConn runs one follower for the life of its connection: handshake,
// snapshot transfer if the follower's position is gone from the ship log,
// then the live tail until either side drops.
func (sh *Shipper) serveConn(rawConn net.Conn, st *connState) {
	defer sh.dropConn(rawConn)

	var conn net.Conn = rawConn
	if sh.Faults != nil {
		conn = &faultConn{Conn: rawConn, ctx: fault.With(context.Background(), sh.Faults)}
	}

	sh.Metrics.Gauge("eil_repl_connected_followers").Add(1)
	defer sh.Metrics.Gauge("eil_repl_connected_followers").Add(-1)

	_ = rawConn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var magic [8]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		sh.logf("repl: handshake read: %v", err)
		return
	}
	if string(magic[:]) != ProtoMagic {
		sh.logf("repl: bad magic from %s", st.addr)
		return
	}
	typ, payload, err := readFrame(conn, MaxControlFrame)
	if err != nil || typ != MsgHello {
		sh.logf("repl: handshake frame from %s: type=%d err=%v", st.addr, typ, err)
		return
	}
	hello, err := decodeHello(payload)
	if err != nil {
		sh.logf("repl: hello from %s: %v", st.addr, err)
		return
	}
	_ = rawConn.SetReadDeadline(time.Time{})
	st.mu.Lock()
	st.name, st.shard = hello.Name, hello.Shard
	st.mu.Unlock()

	if _, err := conn.Write([]byte(ProtoMagic)); err != nil {
		return
	}

	// Fencing: compare the peer's epoch against ours before any state moves.
	ep := sh.Source.EpochInfo(hello.Shard)
	if hello.Epoch > ep.Epoch {
		// The peer lived through a promotion we missed: we are the stale
		// side of the partition. Tell the peer, tell the host, and stop
		// shipping — every byte we would send extends a dead lineage.
		sh.logf("repl: fenced by %s (%s): peer epoch %d > ours %d", hello.Name, st.addr, hello.Epoch, ep.Epoch)
		_ = writeJSON(conn, MsgFence, Fence{Epoch: hello.Epoch, Msg: "shipper epoch stale"})
		sh.Metrics.Counter("eil_repl_fences_total", "dir", "self").Inc()
		if sh.OnFenced != nil {
			sh.OnFenced(hello.Epoch)
		}
		return
	}
	if hello.Epoch < ep.Epoch && hello.Have {
		// A stale peer with state can tail-resume only if that state is a
		// strict prefix of ours: written under the epoch we were promoted
		// from, at or before the sequence the promotion sealed. Anything
		// else (the dead primary's unshipped suffix, or a peer more than
		// one promotion behind) diverged and must re-sync from a snapshot.
		if hello.Epoch != ep.PrevEpoch || hello.Seq > ep.SealedSeq {
			sh.logf("repl: fencing %s (%s): epoch %d seq %d diverges from sealed (%d, %d)",
				hello.Name, st.addr, hello.Epoch, hello.Seq, ep.PrevEpoch, ep.SealedSeq)
			_ = writeJSON(conn, MsgFence, Fence{Epoch: ep.Epoch, Resync: true, Msg: "stale epoch with divergent history; re-sync"})
			sh.Metrics.Counter("eil_repl_fences_total", "dir", "peer").Inc()
			return
		}
	}

	log, err := sh.Source.TailLog(hello.Shard)
	if err != nil {
		_ = writeJSON(conn, MsgError, ErrorMsg{Msg: err.Error()})
		return
	}

	// Decide tail-resume vs full bootstrap. The ship log is append-only
	// concurrent with this, so a cursor valid here stays valid (eviction
	// can invalidate it later; the tail loop re-syncs the follower then by
	// dropping the connection with a resync error).
	var cursor uint64
	resumed := false
	if hello.Have {
		if c, ok := log.CursorFor(hello.Seq); ok {
			cursor = c
			resumed = true
		}
	}
	if resumed {
		gen, _ := log.Head()
		if err := writeJSON(conn, MsgTail, Pos{Gen: gen, Seq: hello.Seq, Epoch: ep.Epoch}); err != nil {
			return
		}
		sh.logf("repl: follower %s (%s) tailing from seq %d", hello.Name, st.addr, hello.Seq)
	} else {
		snap, err := sh.Source.Snapshot(hello.Shard)
		if err != nil {
			sh.logf("repl: snapshot for %s: %v", hello.Name, err)
			_ = writeJSON(conn, MsgError, ErrorMsg{Msg: fmt.Sprintf("snapshot: %v", err)})
			return
		}
		c, ok := log.CursorFor(snap.Seq)
		if !ok {
			snap.Close()
			_ = writeJSON(conn, MsgError, ErrorMsg{Msg: "snapshot position already evicted from ship log"})
			return
		}
		cursor = c
		err = sh.sendSnapshot(conn, snap, ep.Epoch)
		snap.Close()
		if err != nil {
			sh.logf("repl: snapshot transfer to %s: %v", hello.Name, err)
			return
		}
		st.mu.Lock()
		st.snapshotted = true
		st.ackGen, st.ackSeq = snap.Gen, snap.Seq
		st.mu.Unlock()
		sh.Metrics.Counter("eil_repl_snapshots_shipped_total").Inc()
		sh.logf("repl: follower %s (%s) bootstrapped from gen %d seq %d", hello.Name, st.addr, snap.Gen, snap.Seq)
	}

	// Ack reader: drains follower position reports; any read error tears
	// down the connection, which unblocks the tail loop's writes.
	go func() {
		for {
			typ, payload, err := readFrame(conn, MaxControlFrame)
			if err != nil {
				_ = rawConn.Close()
				return
			}
			if typ != MsgPos {
				continue
			}
			var pos Pos
			if decodeControl(payload, &pos) != nil {
				_ = rawConn.Close()
				return
			}
			st.mu.Lock()
			st.ackGen, st.ackSeq = pos.Gen, pos.Seq
			head := st.headSeq
			st.mu.Unlock()
			lag := float64(0)
			if head > pos.Seq {
				lag = float64(head - pos.Seq)
			}
			sh.Metrics.Gauge("eil_repl_follower_lag_records", "follower", hello.Name).Set(lag)
		}
	}()

	sh.tail(conn, rawConn, log, st, cursor, ep.Epoch)
}

// sendSnapshot streams every component in 256 KB chunks, each chunk its
// own CRC-framed message, with a per-component running-CRC trailer.
func (sh *Shipper) sendSnapshot(conn net.Conn, snap *Snapshot, epoch uint64) error {
	begin := SnapBegin{Gen: snap.Gen, Seq: snap.Seq, Epoch: epoch}
	for _, c := range snap.Components {
		begin.Components = append(begin.Components, SnapComponent{Name: c.Name, Size: c.Size})
	}
	if err := writeJSON(conn, MsgSnapBegin, begin); err != nil {
		return err
	}
	bytes := sh.Metrics.Counter("eil_repl_bytes_shipped_total")
	buf := make([]byte, SnapChunk)
	for _, c := range snap.Components {
		sum := uint32(0)
		var sent int64
		for sent < c.Size {
			want := c.Size - sent
			if want > int64(len(buf)) {
				want = int64(len(buf))
			}
			n, err := io.ReadFull(c.R, buf[:want])
			if err != nil {
				return fmt.Errorf("read component %s: %w", c.Name, err)
			}
			sum = crc32.Update(sum, castagnoli, buf[:n])
			if err := writeFrame(conn, MsgSnapData, buf[:n]); err != nil {
				return err
			}
			sent += int64(n)
			bytes.Add(int64(n))
		}
		if err := writeJSON(conn, MsgSnapSum, SnapSum{Name: c.Name, CRC: sum}); err != nil {
			return err
		}
	}
	return writeJSON(conn, MsgSnapEnd, struct{}{})
}

// tail streams ship-log entries from cursor until the connection drops,
// the shipper closes, or the cursor is evicted (follower too slow — it is
// told to re-sync).
func (sh *Shipper) tail(conn net.Conn, rawConn net.Conn, log *Log, st *connState, cursor uint64, epoch uint64) {
	timer := time.NewTimer(heartbeat)
	defer timer.Stop()
	recs := sh.Metrics.Counter("eil_repl_records_shipped_total")
	bytes := sh.Metrics.Counter("eil_repl_bytes_shipped_total")
	for {
		ch := log.WaitCh()
		batch, next, ok := log.From(cursor)
		if !ok {
			sh.Metrics.Counter("eil_repl_evictions_total").Inc()
			_ = writeJSON(conn, MsgError, ErrorMsg{Msg: "position evicted from ship log; re-sync", Resync: true})
			return
		}
		if len(batch) == 0 {
			select {
			case <-ch:
				continue
			case <-timer.C:
				gen, seq := log.Head()
				st.mu.Lock()
				st.headSeq = seq
				st.mu.Unlock()
				_ = rawConn.SetWriteDeadline(time.Now().Add(10 * time.Second))
				if err := writeJSON(conn, MsgPos, Pos{Gen: gen, Seq: seq, Epoch: epoch}); err != nil {
					return
				}
				timer.Reset(heartbeat)
				continue
			case <-sh.ctx.Done():
				return
			}
		}
		for _, e := range batch {
			_ = rawConn.SetWriteDeadline(time.Now().Add(30 * time.Second))
			var err error
			if e.Rotate {
				err = writeJSON(conn, MsgRotate, Pos{Gen: e.Gen, Seq: e.Seq, Epoch: epoch})
			} else {
				payload := EncodeRecord(Record{Seq: e.Seq, Kind: e.Kind, Payload: e.Payload})
				err = writeFrame(conn, MsgRecord, payload)
				recs.Inc()
				bytes.Add(int64(len(payload)))
			}
			if err != nil {
				sh.Metrics.Counter("eil_repl_ship_errors_total").Inc()
				return
			}
			st.mu.Lock()
			st.headSeq = e.Seq
			st.mu.Unlock()
		}
		_ = rawConn.SetWriteDeadline(time.Time{})
		cursor = next
	}
}

// faultConn routes reads and writes through the fault injector so chaos
// tests can partition the stream mid-frame (repl.send, ModePartial), fail
// it outright (ModeError), or corrupt bytes in flight (repl.corrupt).
type faultConn struct {
	net.Conn
	ctx context.Context
}

func (c *faultConn) Write(p []byte) (int, error) {
	if fault.Inject(c.ctx, SiteCorrupt) != nil && len(p) > 0 {
		// Deliver the frame fully but with one byte flipped: the peer's
		// CRC check, not a transport error, must catch this.
		bad := append([]byte(nil), p...)
		bad[len(bad)/2] ^= 0xFF
		return c.Conn.Write(bad)
	}
	if keep := fault.Keep(c.ctx, SiteSend, len(p)); keep < len(p) {
		n, _ := c.Conn.Write(p[:keep])
		_ = c.Conn.Close()
		return n, fmt.Errorf("repl: injected partial write (%d of %d bytes)", keep, len(p))
	}
	if err := fault.Inject(c.ctx, SiteSend); err != nil {
		_ = c.Conn.Close()
		return 0, err
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Read(p []byte) (int, error) {
	if err := fault.Inject(c.ctx, SiteRecv); err != nil {
		_ = c.Conn.Close()
		return 0, err
	}
	return c.Conn.Read(p)
}
