package repl

import (
	"testing"
)

func TestLogCursorAndFrom(t *testing.T) {
	l := NewLog(1, 10) // history begins after seq 10
	for s := uint64(11); s <= 20; s++ {
		l.Append(Entry{Seq: s, Kind: 1})
	}
	cur, ok := l.CursorFor(10)
	if !ok {
		t.Fatal("CursorFor(10) not covered")
	}
	batch, next, ok := l.From(cur)
	if !ok || len(batch) != 10 || batch[0].Seq != 11 || batch[9].Seq != 20 {
		t.Fatalf("From: ok=%v len=%d", ok, len(batch))
	}
	// The returned next cursor is at the head: no entries yet.
	if batch2, _, ok2 := l.From(next); !ok2 || len(batch2) != 0 {
		t.Fatalf("From(next): ok=%v len=%d, want empty batch", ok2, len(batch2))
	}
	// Resume mid-stream.
	cur, ok = l.CursorFor(15)
	if !ok {
		t.Fatal("CursorFor(15) not covered")
	}
	batch, _, _ = l.From(cur)
	if len(batch) != 5 || batch[0].Seq != 16 {
		t.Fatalf("resume at 15: len=%d first=%d", len(batch), batch[0].Seq)
	}
}

func TestLogRotateEntrySharesSeq(t *testing.T) {
	// A rotation folds existing records into a snapshot without consuming a
	// sequence number; a cursor that already passed seq must still see the
	// rotate entry (it sorts after the record with the same seq).
	l := NewLog(1, 0)
	l.Append(Entry{Seq: 1, Kind: 1})
	l.Append(Entry{Seq: 2, Kind: 1})
	l.Append(Entry{Seq: 2, Rotate: true, Gen: 2})
	l.Append(Entry{Seq: 3, Kind: 1})
	cur, ok := l.CursorFor(2)
	if !ok {
		t.Fatal("CursorFor(2) not covered")
	}
	batch, _, _ := l.From(cur)
	// Resuming after seq 2 must not re-deliver the rotate (the follower at
	// seq 2 reconnecting has already checkpointed or will get records only).
	// What it must deliver is exactly seq 3.
	want := 0
	for _, e := range batch {
		if e.Rotate {
			continue
		}
		want++
		if e.Seq != 3 {
			t.Fatalf("unexpected record seq %d", e.Seq)
		}
	}
	if want != 1 {
		t.Fatalf("got %d records, want 1", want)
	}
}

func TestLogEvictionAndCovers(t *testing.T) {
	l := NewLog(1, 0)
	l.maxEntries = 4
	for s := uint64(1); s <= 10; s++ {
		l.Append(Entry{Seq: s, Kind: 1})
	}
	if l.Covers(0) {
		t.Fatal("Covers(0) after eviction should be false")
	}
	if !l.Covers(9) {
		t.Fatal("Covers(9) should hold")
	}
	if _, ok := l.CursorFor(2); ok {
		t.Fatal("CursorFor(2) should report eviction")
	}
	if _, ok := l.CursorFor(6); !ok {
		t.Fatal("CursorFor(6) should be retained")
	}
	if _, head := l.Head(); head != 10 {
		t.Fatalf("head = %d, want 10", head)
	}
}

func TestLogWaitChSignalsAppend(t *testing.T) {
	l := NewLog(1, 0)
	ch := l.WaitCh()
	select {
	case <-ch:
		t.Fatal("channel closed before append")
	default:
	}
	l.Append(Entry{Seq: 1, Kind: 1})
	select {
	case <-ch:
	default:
		t.Fatal("channel not closed after append")
	}
}
