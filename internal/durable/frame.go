package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Container framing. Every durable file — snapshot components, the WAL, the
// manifest — is a sequence of length-prefixed, CRC-checksummed frames under
// a magic+version+kind header:
//
//	header:  "EILDUR1\n" | version uint32 | kindLen uint8 | kind | crc32c(header fields)
//	frame:   length uint32 | crc32c(payload) | payload
//	eof:     0xFFFFFFFF   | 0x454F4621  ("EOF!")
//
// All integers are big-endian. Containers (snapshot components, manifest)
// end with the explicit EOF marker so truncation at a frame boundary is
// detectable (ErrTorn); journals are append-only and have no marker — a
// clean end at a frame boundary is the normal end of the log, and a partial
// frame is a torn tail the replayer stops at.

var frameMagic = [8]byte{'E', 'I', 'L', 'D', 'U', 'R', '1', '\n'}

const (
	// maxFrame bounds a single frame so a corrupt length prefix cannot
	// drive a multi-gigabyte allocation.
	maxFrame = 64 << 20
	// streamChunk is how the stream writer slices large payloads (a gob
	// snapshot is one logical blob) into frames, giving the crash matrix
	// many boundaries to truncate at and the reader incremental CRC checks.
	streamChunk = 1 << 20

	eofLen = 0xFFFFFFFF
	eofCRC = 0x454F4621
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FrameWriter writes one framed container or journal.
type FrameWriter struct {
	w   io.Writer
	err error
	buf []byte // pending stream-writer chunk
}

// NewFrameWriter writes the header for a container of the given kind and
// format version and returns the writer.
func NewFrameWriter(w io.Writer, kind string, version uint32) (*FrameWriter, error) {
	if len(kind) > 255 {
		return nil, fmt.Errorf("durable: kind %q too long", kind)
	}
	var hdr []byte
	hdr = append(hdr, frameMagic[:]...)
	hdr = binary.BigEndian.AppendUint32(hdr, version)
	hdr = append(hdr, byte(len(kind)))
	hdr = append(hdr, kind...)
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.Checksum(hdr[len(frameMagic):], castagnoli))
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("durable: write header: %w", err)
	}
	return &FrameWriter{w: w}, nil
}

// WriteFrame writes one checksummed frame.
func (fw *FrameWriter) WriteFrame(p []byte) error {
	if fw.err != nil {
		return fw.err
	}
	if len(p) >= maxFrame {
		fw.err = fmt.Errorf("durable: frame of %d bytes exceeds limit", len(p))
		return fw.err
	}
	var pre [8]byte
	binary.BigEndian.PutUint32(pre[0:], uint32(len(p)))
	binary.BigEndian.PutUint32(pre[4:], crc32.Checksum(p, castagnoli))
	if _, err := fw.w.Write(pre[:]); err != nil {
		fw.err = err
		return err
	}
	if _, err := fw.w.Write(p); err != nil {
		fw.err = err
		return err
	}
	return nil
}

// Write implements io.Writer: payload bytes accumulate into streamChunk-
// sized frames. Close flushes the tail and writes the EOF marker.
func (fw *FrameWriter) Write(p []byte) (int, error) {
	if fw.err != nil {
		return 0, fw.err
	}
	n := len(p)
	for len(p) > 0 {
		room := streamChunk - len(fw.buf)
		take := len(p)
		if take > room {
			take = room
		}
		fw.buf = append(fw.buf, p[:take]...)
		p = p[take:]
		if len(fw.buf) == streamChunk {
			if err := fw.flushChunk(); err != nil {
				return 0, err
			}
		}
	}
	return n, nil
}

func (fw *FrameWriter) flushChunk() error {
	if len(fw.buf) == 0 {
		return nil
	}
	err := fw.WriteFrame(fw.buf)
	fw.buf = fw.buf[:0]
	return err
}

// Close flushes any buffered stream chunk and writes the EOF marker that
// distinguishes a complete container from a torn one. Journals must not
// call Close (they end wherever the last append ended).
func (fw *FrameWriter) Close() error {
	if err := fw.flushChunk(); err != nil {
		return err
	}
	if fw.err != nil {
		return fw.err
	}
	var pre [8]byte
	binary.BigEndian.PutUint32(pre[0:], eofLen)
	binary.BigEndian.PutUint32(pre[4:], eofCRC)
	if _, err := fw.w.Write(pre[:]); err != nil {
		fw.err = err
		return err
	}
	return nil
}

// FrameReader reads a framed container or journal, verifying every frame's
// checksum as it goes.
type FrameReader struct {
	r    io.Reader
	path string
	// journal mode: no EOF marker; clean EOF at a frame boundary is the
	// normal end, not a torn container.
	journal bool
	done    bool
	stream  []byte // unconsumed tail of the current frame (Read mode)
}

// NewFrameReader validates the header (magic, version, kind) and returns
// the reader. path labels errors. A version mismatch returns a
// *VersionError; bad magic or a checksummed-header mismatch returns a
// *CorruptError.
func NewFrameReader(r io.Reader, path, kind string, version uint32) (*FrameReader, error) {
	return newFrameReader(r, path, kind, version, version, false)
}

// NewJournalReader is NewFrameReader for append-only journals: the stream
// has no EOF marker, and a clean end at a frame boundary is io.EOF rather
// than ErrTorn.
func NewJournalReader(r io.Reader, path, kind string, version uint32) (*FrameReader, error) {
	return newFrameReader(r, path, kind, version, version, true)
}

// newFrameReader accepts the versions from oldest to newest.
func newFrameReader(r io.Reader, path, kind string, oldest, newest uint32, journal bool) (*FrameReader, error) {
	hdr := make([]byte, len(frameMagic)+4+1)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, &CorruptError{Path: path, Detail: "short header"}
	}
	if [8]byte(hdr[:8]) != frameMagic {
		return nil, &CorruptError{Path: path, Detail: "bad magic"}
	}
	gotVersion := binary.BigEndian.Uint32(hdr[8:12])
	kindLen := int(hdr[12])
	rest := make([]byte, kindLen+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, &CorruptError{Path: path, Detail: "short header"}
	}
	sum := crc32.Checksum(hdr[8:], castagnoli)
	sum = crc32.Update(sum, castagnoli, rest[:kindLen])
	if sum != binary.BigEndian.Uint32(rest[kindLen:]) {
		return nil, &CorruptError{Path: path, Detail: "header checksum mismatch"}
	}
	if gotVersion < oldest || gotVersion > newest {
		return nil, &VersionError{Path: path, Got: gotVersion, Want: newest}
	}
	if string(rest[:kindLen]) != kind {
		return nil, &CorruptError{Path: path, Detail: fmt.Sprintf("kind %q, want %q", rest[:kindLen], kind)}
	}
	return &FrameReader{r: r, path: path, journal: journal}, nil
}

// Next returns the next frame's payload. It returns io.EOF at the clean end
// of the container (the EOF marker, or — for journals — the end of the
// file at a frame boundary), ErrTorn when the file ends mid-frame, and a
// *CorruptError on a checksum mismatch or impossible length.
func (fr *FrameReader) Next() ([]byte, error) {
	if fr.done {
		return nil, io.EOF
	}
	var pre [8]byte
	if _, err := io.ReadFull(fr.r, pre[:]); err != nil {
		if err == io.EOF && fr.journal {
			fr.done = true
			return nil, io.EOF
		}
		fr.done = true
		return nil, fmt.Errorf("%w: %s ends mid-frame", ErrTorn, fr.path)
	}
	length := binary.BigEndian.Uint32(pre[0:])
	sum := binary.BigEndian.Uint32(pre[4:])
	if length == eofLen && sum == eofCRC {
		fr.done = true
		if fr.journal {
			return nil, &CorruptError{Path: fr.path, Detail: "EOF marker in journal"}
		}
		return nil, io.EOF
	}
	if length >= maxFrame {
		fr.done = true
		return nil, &CorruptError{Path: fr.path, Detail: fmt.Sprintf("frame length %d exceeds limit", length)}
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		fr.done = true
		return nil, fmt.Errorf("%w: %s ends mid-frame", ErrTorn, fr.path)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		fr.done = true
		return nil, &CorruptError{Path: fr.path, Detail: "frame checksum mismatch"}
	}
	return payload, nil
}

// Read implements io.Reader over the concatenated payload frames, so a gob
// decoder streams a component while every chunk is checksum-verified on the
// way through. The error at a torn or corrupt point is the frame error.
func (fr *FrameReader) Read(p []byte) (int, error) {
	for len(fr.stream) == 0 {
		frame, err := fr.Next()
		if err != nil {
			return 0, err
		}
		fr.stream = frame
	}
	n := copy(p, fr.stream)
	fr.stream = fr.stream[n:]
	return n, nil
}

// Drain consumes the remaining frames, verifying their checksums, and
// reports whether the container is complete and intact. Loaders call it
// after a successful decode so trailing corruption (past what the decoder
// happened to read) still fails the load.
func (fr *FrameReader) Drain() error {
	for {
		_, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
