package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Trace recording and replay, in the spirit of the Dinero IV trace-driven
// cache simulator the paper cites: any generator's reference stream can be
// captured to a compact binary form and replayed later, which makes cache
// experiments exactly repeatable and lets externally produced traces be
// fed through the same machinery.

// Recorder wraps a generator and tees every reference to a writer.
type Recorder struct {
	gen Generator
	w   *bufio.Writer
	buf [8]byte // one encoded ID; a field, so passing it to w does not allocate
	n   uint64
	err error
}

// NewRecorder wraps gen, writing each emitted line ID to w as a
// little-endian uint64.
func NewRecorder(gen Generator, w io.Writer) *Recorder {
	return &Recorder{gen: gen, w: bufio.NewWriter(w)}
}

// Fill emits the wrapped generator's next len(dst) references and records
// them, in the order it returns them.
func (r *Recorder) Fill(dst []uint64) {
	r.gen.Fill(dst)
	for _, id := range dst {
		if r.err != nil {
			break
		}
		binary.LittleEndian.PutUint64(r.buf[:], id)
		_, r.err = r.w.Write(r.buf[:])
	}
	r.n += uint64(len(dst))
}

// Count returns how many references were recorded.
func (r *Recorder) Count() uint64 { return r.n }

// Flush finalizes the recording and reports any write error.
func (r *Recorder) Flush() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// Replayer replays a recorded reference stream. When the stream is
// exhausted it wraps to the beginning (generators are infinite by
// contract), so a finite trace can drive arbitrarily long runs.
type Replayer struct {
	refs []uint64
	pos  int
}

// NewReplayer reads an entire recorded stream into memory. It fails on an
// empty or truncated stream.
func NewReplayer(r io.Reader) (*Replayer, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading recording: %w", err)
	}
	if len(data) == 0 || len(data)%8 != 0 {
		return nil, fmt.Errorf("trace: recording has %d bytes, want a positive multiple of 8", len(data))
	}
	refs := make([]uint64, len(data)/8)
	for i := range refs {
		refs[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	return &Replayer{refs: refs}, nil
}

// NewReplayerFromSlice replays an in-memory reference list (copied).
func NewReplayerFromSlice(refs []uint64) (*Replayer, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("trace: empty reference list")
	}
	return &Replayer{refs: append([]uint64(nil), refs...)}, nil
}

// Next returns the next recorded reference, wrapping at the end.
func (r *Replayer) Next() uint64 {
	id := r.refs[r.pos]
	r.pos++
	if r.pos == len(r.refs) {
		r.pos = 0
	}
	return id
}

// Fill writes the next len(dst) references of Next's stream.
func (r *Replayer) Fill(dst []uint64) {
	for i := range dst {
		dst[i] = r.Next()
	}
}

// Len returns the number of recorded references.
func (r *Replayer) Len() int { return len(r.refs) }
