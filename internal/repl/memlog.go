package repl

import (
	"sort"
	"sync"
)

// Entry is one shippable event: a journal record, or a rotate marker
// noting the primary checkpointed into a new generation at this sequence.
type Entry struct {
	Seq     uint64
	Kind    uint8
	Payload []byte
	Rotate  bool
	Gen     uint64 // new generation, rotate entries only
}

// Log is the primary's bounded in-memory ship buffer. The journal tap
// appends every record (and every checkpoint rotation) here; each
// follower connection holds a cursor and drains independently.
//
// Cursors are absolute entry indexes, not sequence numbers: rotate
// entries share the sequence number of the record before them, so a
// seq-addressed cursor could never step past one. CursorFor maps a resume
// sequence to the index just after it; From either returns entries or
// reports the cursor fell below the eviction floor, in which case the
// follower is too far behind to tail and must re-bootstrap from a
// snapshot.
type Log struct {
	mu         sync.Mutex
	entries    []Entry
	baseIdx    uint64 // absolute index of entries[0]
	floorSeq   uint64 // resume positions >= floorSeq can still tail
	gen        uint64 // generation the head of the log lives in
	headSeq    uint64
	bytes      int64
	maxBytes   int64
	maxEntries int
	changed    chan struct{}
}

// A ship log holds at most logMaxEntries entries and logMaxBytes of
// payload; past either it evicts from the tail.
const (
	logMaxEntries = 8192
	logMaxBytes   = 64 << 20
)

// NewLog starts a ship log whose history begins at (gen, seq): the
// position of the state whose records it will hold.
func NewLog(gen, seq uint64) *Log {
	return &Log{
		floorSeq:   seq,
		headSeq:    seq,
		gen:        gen,
		maxEntries: logMaxEntries,
		maxBytes:   logMaxBytes,
		changed:    make(chan struct{}),
	}
}

func entrySize(e Entry) int64 { return int64(len(e.Payload)) + 48 }

// Append adds an entry at the head and evicts from the tail while over
// either bound. Waiters registered via WaitCh before this append are
// woken.
func (l *Log) Append(e Entry) {
	l.mu.Lock()
	l.entries = append(l.entries, e)
	l.bytes += entrySize(e)
	l.headSeq = e.Seq
	if e.Rotate {
		l.gen = e.Gen
	}
	for len(l.entries) > 1 && (len(l.entries) > l.maxEntries || l.bytes > l.maxBytes) {
		drop := l.entries[0]
		l.entries[0] = Entry{}
		l.entries = l.entries[1:]
		l.baseIdx++
		l.bytes -= entrySize(drop)
		l.floorSeq = drop.Seq
	}
	close(l.changed)
	l.changed = make(chan struct{})
	l.mu.Unlock()
}

// Head reports the generation and sequence at the head of the log.
func (l *Log) Head() (gen, seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen, l.headSeq
}

// Covers reports whether a follower resuming after seq can still tail, or
// whether that history has been evicted.
func (l *Log) Covers(seq uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return seq >= l.floorSeq
}

// CursorFor maps a resume sequence (every record <= seq already applied)
// to the absolute index of the first entry to ship. ok is false when that
// history has been evicted.
func (l *Log) CursorFor(seq uint64) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < l.floorSeq {
		return 0, false
	}
	// Entries are seq-nondecreasing; ship everything with Seq > seq.
	// Rotate entries at exactly seq are skipped deliberately: a follower
	// resuming at seq has already checkpointed that position.
	i := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].Seq > seq })
	return l.baseIdx + uint64(i), true
}

// From returns every entry at or after the absolute cursor, plus the
// cursor one past what was returned. ok is false when the cursor's
// history has been evicted (follower must re-sync).
func (l *Log) From(cursor uint64) (batch []Entry, next uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor < l.baseIdx {
		return nil, 0, false
	}
	off := cursor - l.baseIdx
	if off >= uint64(len(l.entries)) {
		return nil, cursor, true
	}
	batch = append(batch, l.entries[off:]...)
	return batch, l.baseIdx + uint64(len(l.entries)), true
}

// WaitCh returns a channel closed by the next Append. Take it before
// calling From: an append landing between the two closes the channel you
// already hold, so the select never misses it.
func (l *Log) WaitCh() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.changed
}
