package repl

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Sink is the follower host's apply surface. One Client goroutine calls
// it sequentially; implementations never see concurrent calls.
type Sink interface {
	// Position reports the local replayable position; have is false when
	// the follower holds no state and must bootstrap.
	Position() (gen, seq uint64, have bool)
	// BeginSnapshot starts installing a full snapshot at (gen, seq).
	BeginSnapshot(gen, seq uint64) (SnapshotInstaller, error)
	// Apply replays one journal record. Any error drops the connection and
	// retries; a sequence gap is an error by contract.
	Apply(rec Record) error
	// Rotate records that the primary checkpointed into gen with every
	// record through seq folded in — the follower's cue to checkpoint
	// locally so restarts resume from here.
	Rotate(gen, seq uint64) error
	// Advance reports the primary's head position (heartbeat); purely
	// informational, for lag measurement.
	Advance(gen, seq uint64)
	// Epoch is the failover term the local state was last written under,
	// sent in the hello.
	Epoch() uint64
	// AdoptEpoch durably records a newer term learned from the primary's
	// positions, so a restart hellos with the right one.
	AdoptEpoch(epoch uint64) error
}

// FenceError is the typed terminal error a session returns when the
// primary fenced this client: a newer epoch exists. Resync reports the
// verdict that local history diverged (the client has already armed a
// snapshot re-sync for its next attempt).
type FenceError struct {
	Epoch  uint64
	Resync bool
	Msg    string
}

func (e *FenceError) Error() string {
	return fmt.Sprintf("repl: fenced at epoch %d (resync=%v): %s", e.Epoch, e.Resync, e.Msg)
}

// SnapshotInstaller receives one snapshot transfer. Components arrive in
// manifest order; Commit lands after the last one verifies.
type SnapshotInstaller interface {
	Component(name string, size int64, r io.Reader) error
	Commit() error
	Abort()
}

// ClientStatus is a point-in-time view of the replication client.
type ClientStatus struct {
	State       string    `json:"state"` // connecting | snapshot | streaming | backoff
	LastError   string    `json:"last_error,omitempty"`
	Resyncs     uint64    `json:"resyncs"`
	Reconnects  uint64    `json:"reconnects"`
	Applied     uint64    `json:"applied_records"`
	FencedBy    uint64    `json:"fenced_by,omitempty"` // newest epoch a fence verdict named
	ConnectedAt time.Time `json:"connected_at,omitempty"`
}

// Client maintains the follower's connection to the primary: it dials,
// hands over its position, installs a snapshot when the primary says its
// position is unserviceable, and replays the stream into the Sink,
// reconnecting with backoff forever until its context cancels.
//
// Trust policy: a transport error (reset, EOF — including one injected
// mid-frame) retries at the same position, because every applied record
// already passed its CRC. A framing violation (ErrBadFrame: bad CRC,
// hostile length, malformed control payload) forces a full snapshot
// re-sync on the next attempt — once one frame lies, the stream's history
// is no longer evidence of anything.
type Client struct {
	Addr    string
	Name    string
	Shard   string
	Sink    Sink
	Metrics *obs.Registry
	Logf    func(format string, args ...any)
	// Faults, when set, wraps the dialed connection in the injection seam.
	Faults *fault.Injector

	forceResync atomic.Bool
	state       atomic.Value // string
	lastErr     atomic.Value // string
	resyncs     atomic.Uint64
	reconnects  atomic.Uint64
	applied     atomic.Uint64
	fencedBy    atomic.Uint64
	connectedAt atomic.Int64 // unixnano, 0 = not connected
}

// ackEvery paces position reports back to the primary; maxBackoff caps the
// reconnect delay.
const (
	ackEvery   = 200 * time.Millisecond
	maxBackoff = 2 * time.Second
)

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Client) setState(s string) { c.state.Store(s) }

// Status reports the client's current state and counters.
func (c *Client) Status() ClientStatus {
	st := ClientStatus{
		Resyncs:    c.resyncs.Load(),
		Reconnects: c.reconnects.Load(),
		Applied:    c.applied.Load(),
		FencedBy:   c.fencedBy.Load(),
	}
	if v, ok := c.state.Load().(string); ok {
		st.State = v
	} else {
		st.State = "connecting"
	}
	if v, ok := c.lastErr.Load().(string); ok {
		st.LastError = v
	}
	if ns := c.connectedAt.Load(); ns != 0 {
		st.ConnectedAt = time.Unix(0, ns)
	}
	return st
}

// Run drives the reconnect loop until ctx cancels.
func (c *Client) Run(ctx context.Context) error {
	backoff := 50 * time.Millisecond
	for {
		c.setState("connecting")
		progressed, err := c.session(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			c.lastErr.Store(err.Error())
			c.Metrics.Counter("eil_repl_client_disconnects_total").Inc()
			if errors.Is(err, ErrBadFrame) {
				// The stream itself is untrustworthy: distrust local
				// incremental state and bootstrap fresh next attempt.
				c.forceResync.Store(true)
				c.logf("repl: stream integrity failure, forcing snapshot re-sync: %v", err)
			} else {
				c.logf("repl: disconnected: %v", err)
			}
		}
		if progressed {
			backoff = 50 * time.Millisecond
		}
		c.setState("backoff")
		t := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// session runs one connection to completion. progressed reports whether
// any state moved (snapshot installed or records applied), which resets
// the reconnect backoff.
func (c *Client) session(ctx context.Context) (progressed bool, err error) {
	d := net.Dialer{Timeout: 5 * time.Second}
	rawConn, err := d.DialContext(ctx, "tcp", c.Addr)
	if err != nil {
		return false, err
	}
	defer rawConn.Close()
	stop := context.AfterFunc(ctx, func() { _ = rawConn.Close() })
	defer stop()

	var conn net.Conn = rawConn
	if c.Faults != nil {
		conn = &faultConn{Conn: rawConn, ctx: fault.With(context.Background(), c.Faults)}
	}

	gen, seq, have := c.Sink.Position()
	// A first-time bootstrap (no local state) is a sync, not a re-sync:
	// only installs that replace usable incremental state — forced by a
	// framing violation, or the primary refusing our tail position — count
	// toward Resyncs.
	hadState := have
	forced := c.forceResync.Load()
	if forced {
		have = false
	}
	myEpoch := c.Sink.Epoch()
	// adopt durably records a newer term learned from the primary. It only
	// runs on positions the primary sent us while our state is a verified
	// prefix of its stream (tail grant, post-install, rotate, heartbeat) —
	// never on a fence verdict, where our local history may have diverged
	// and stamping it with the new epoch would forge a resumable position.
	adopt := func(epoch uint64) error {
		if epoch <= myEpoch {
			return nil
		}
		if err := c.Sink.AdoptEpoch(epoch); err != nil {
			return fmt.Errorf("adopt epoch %d: %w", epoch, err)
		}
		c.logf("repl: adopted epoch %d (was %d)", epoch, myEpoch)
		myEpoch = epoch
		return nil
	}
	hello := Hello{Format: ProtoFormat, Name: c.Name, Shard: c.Shard, Have: have, Gen: gen, Seq: seq, Epoch: myEpoch}
	_ = rawConn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte(ProtoMagic)); err != nil {
		return false, err
	}
	if err := writeJSON(conn, MsgHello, hello); err != nil {
		return false, err
	}
	var magic [8]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return false, err
	}
	if string(magic[:]) != ProtoMagic {
		return false, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	_ = rawConn.SetDeadline(time.Time{})
	c.connectedAt.Store(time.Now().UnixNano())
	defer c.connectedAt.Store(0)
	c.reconnects.Add(1)

	var lastAck time.Time
	ack := func(force bool) error {
		if !force && time.Since(lastAck) < ackEvery {
			return nil
		}
		lastAck = time.Now()
		_ = rawConn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		defer rawConn.SetWriteDeadline(time.Time{})
		return writeJSON(conn, MsgPos, Pos{Gen: gen, Seq: seq})
	}

	for {
		typ, payload, err := readFrame(conn, MaxRecordFrame)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return progressed, err
		}
		switch typ {
		case MsgTail:
			var pos Pos
			if err := decodeControl(payload, &pos); err != nil {
				return progressed, err
			}
			gen = pos.Gen
			if err := adopt(pos.Epoch); err != nil {
				return progressed, err
			}
			c.setState("streaming")
			c.logf("repl: tailing from seq %d (primary gen %d)", seq, gen)

		case MsgSnapBegin:
			var begin SnapBegin
			if err := decodeControl(payload, &begin); err != nil {
				return progressed, err
			}
			c.setState("snapshot")
			if err := c.installSnapshot(conn, begin); err != nil {
				return progressed, err
			}
			gen, seq = begin.Gen, begin.Seq
			progressed = true
			if err := adopt(begin.Epoch); err != nil {
				return progressed, err
			}
			c.fencedBy.Store(0)
			c.forceResync.Store(false)
			if forced || hadState {
				c.resyncs.Add(1)
				c.Metrics.Counter("eil_repl_client_resyncs_total").Inc()
			}
			c.setState("streaming")
			c.logf("repl: installed snapshot gen %d seq %d", begin.Gen, begin.Seq)
			if err := ack(true); err != nil {
				return progressed, err
			}

		case MsgRecord:
			rec, err := DecodeRecord(payload)
			if err != nil {
				return progressed, err
			}
			if err := c.Sink.Apply(rec); err != nil {
				return progressed, fmt.Errorf("apply seq %d: %w", rec.Seq, err)
			}
			seq = rec.Seq
			progressed = true
			c.applied.Add(1)
			c.Metrics.Counter("eil_repl_client_applied_total").Inc()
			if err := ack(false); err != nil {
				return progressed, err
			}

		case MsgRotate:
			var pos Pos
			if err := decodeControl(payload, &pos); err != nil {
				return progressed, err
			}
			if err := adopt(pos.Epoch); err != nil {
				return progressed, err
			}
			if err := c.Sink.Rotate(pos.Gen, pos.Seq); err != nil {
				return progressed, fmt.Errorf("rotate to gen %d: %w", pos.Gen, err)
			}
			gen = pos.Gen
			progressed = true
			if err := ack(true); err != nil {
				return progressed, err
			}

		case MsgPos:
			var pos Pos
			if err := decodeControl(payload, &pos); err != nil {
				return progressed, err
			}
			if err := adopt(pos.Epoch); err != nil {
				return progressed, err
			}
			c.Sink.Advance(pos.Gen, pos.Seq)
			if err := ack(false); err != nil {
				return progressed, err
			}

		case MsgError:
			var em ErrorMsg
			if err := decodeControl(payload, &em); err != nil {
				return progressed, err
			}
			if em.Resync {
				c.forceResync.Store(true)
			}
			return progressed, fmt.Errorf("repl: primary refused: %s", em.Msg)

		case MsgFence:
			f, err := decodeFence(payload)
			if err != nil {
				return progressed, err
			}
			c.fencedBy.Store(f.Epoch)
			if f.Resync {
				// Our history diverged from the fenced lineage: distrust it
				// and bootstrap under the new epoch next attempt. The epoch
				// itself is adopted only after the install commits.
				c.forceResync.Store(true)
			}
			c.Metrics.Counter("eil_repl_client_fences_total").Inc()
			return progressed, &FenceError{Epoch: f.Epoch, Resync: f.Resync, Msg: f.Msg}

		default:
			return progressed, fmt.Errorf("%w: unexpected message type %d", ErrBadFrame, typ)
		}
	}
}

// installSnapshot receives one snapshot transfer: for each announced
// component it hands the installer a bounded reader over the MsgSnapData
// chunks, then verifies the running CRC against the MsgSnapSum trailer
// before moving on. Any mismatch aborts the install.
func (c *Client) installSnapshot(conn net.Conn, begin SnapBegin) (err error) {
	inst, err := c.Sink.BeginSnapshot(begin.Gen, begin.Seq)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			inst.Abort()
		}
	}()
	sr := &snapReader{conn: conn}
	for _, comp := range begin.Components {
		if comp.Size < 0 {
			return fmt.Errorf("%w: negative component size", ErrBadFrame)
		}
		sr.remaining = comp.Size
		sr.sum = 0
		if err := inst.Component(comp.Name, comp.Size, sr); err != nil {
			return fmt.Errorf("install component %s: %w", comp.Name, err)
		}
		if sr.remaining != 0 {
			return fmt.Errorf("component %s: installer consumed %d of %d bytes", comp.Name, comp.Size-sr.remaining, comp.Size)
		}
		typ, payload, err := readFrame(conn, MaxControlFrame)
		if err != nil {
			return err
		}
		if typ != MsgSnapSum {
			return fmt.Errorf("%w: expected snapshot trailer, got type %d", ErrBadFrame, typ)
		}
		var sum SnapSum
		if err := decodeControl(payload, &sum); err != nil {
			return err
		}
		if sum.Name != comp.Name || sum.CRC != sr.sum {
			return fmt.Errorf("%w: component %s checksum mismatch", ErrBadFrame, comp.Name)
		}
	}
	typ, _, err := readFrame(conn, MaxControlFrame)
	if err != nil {
		return err
	}
	if typ != MsgSnapEnd {
		return fmt.Errorf("%w: expected snapshot end, got type %d", ErrBadFrame, typ)
	}
	return inst.Commit()
}

// snapReader adapts the stream of MsgSnapData frames into an io.Reader
// bounded by the current component's declared size.
type snapReader struct {
	conn      net.Conn
	buf       []byte
	remaining int64
	sum       uint32
}

func (sr *snapReader) Read(p []byte) (int, error) {
	if sr.remaining <= 0 {
		return 0, io.EOF
	}
	for len(sr.buf) == 0 {
		typ, payload, err := readFrame(sr.conn, MaxRecordFrame)
		if err != nil {
			return 0, err
		}
		if typ != MsgSnapData {
			return 0, fmt.Errorf("%w: expected snapshot data, got type %d", ErrBadFrame, typ)
		}
		if int64(len(payload)) > sr.remaining {
			return 0, fmt.Errorf("%w: snapshot chunk overruns component", ErrBadFrame)
		}
		sr.sum = crc32.Update(sr.sum, castagnoli, payload)
		sr.buf = payload
	}
	n := copy(p, sr.buf)
	sr.buf = sr.buf[n:]
	sr.remaining -= int64(n)
	return n, nil
}
