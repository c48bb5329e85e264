package recorder

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Sink persists events as length-prefixed JSONL: each record is the
// decimal byte length of the JSON document, a space, the document, and a
// newline:
//
//	123 {"seq":1,"type":"meta",...}\n
//
// The prefix makes truncation detectable (a partial tail record fails the
// length check instead of silently parsing as a shorter log) while the
// payload stays grep-able JSONL. Writes are buffered; call Close (or
// Recorder.DetachSink) to flush.
//
// A Sink is not safe for concurrent use on its own — the Recorder
// serializes writes under its emission lock, which also keeps the file in
// sequence order.
type Sink struct {
	w   *bufio.Writer
	c   io.Closer // non-nil when the sink owns the underlying writer
	err error
}

// NewSink wraps w. If w is also an io.Closer, Close closes it.
func NewSink(w io.Writer) *Sink {
	s := &Sink{w: bufio.NewWriterSize(w, 64<<10)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// write appends one record. After the first error every write is a no-op
// returning that error.
//
//flex:coldpath
func (s *Sink) write(e Event) error {
	if s.err != nil {
		return s.err
	}
	b, err := json.Marshal(e)
	if err != nil {
		s.err = err
		return err
	}
	var lenBuf [20]byte
	if _, err := s.w.Write(strconv.AppendInt(lenBuf[:0], int64(len(b)), 10)); err != nil {
		s.err = err
		return err
	}
	if err := s.w.WriteByte(' '); err != nil {
		s.err = err
		return err
	}
	if _, err := s.w.Write(b); err != nil {
		s.err = err
		return err
	}
	if err := s.w.WriteByte('\n'); err != nil {
		s.err = err
		return err
	}
	return nil
}

// Close flushes buffered records and closes the underlying writer when
// the sink owns it. It returns the first error seen (write, flush, or
// close).
func (s *Sink) Close() error {
	flushErr := s.w.Flush()
	if s.err == nil {
		s.err = flushErr
	}
	if s.c != nil {
		closeErr := s.c.Close()
		if s.err == nil {
			s.err = closeErr
		}
	}
	return s.err
}

// ReadEvents parses a length-prefixed JSONL event log produced by Sink.
// It fails on malformed prefixes, length mismatches, and non-monotonic
// sequence numbers — a truncated or corrupted log should be rejected, not
// silently replayed short. A partial final record (crash mid-write) is
// reported as an error carrying the events decoded so far.
func ReadEvents(r io.Reader) ([]Event, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var out []Event
	var lastSeq uint64
	for rec := 1; ; rec++ {
		prefix, err := br.ReadString(' ')
		if err == io.EOF && prefix == "" {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("recorder: record %d: truncated length prefix: %w", rec, err)
		}
		n, err := strconv.Atoi(prefix[:len(prefix)-1])
		if err != nil || n <= 0 {
			return out, fmt.Errorf("recorder: record %d: malformed length prefix %q", rec, prefix)
		}
		buf := make([]byte, n+1)
		if _, err := io.ReadFull(br, buf); err != nil {
			return out, fmt.Errorf("recorder: record %d: truncated body (want %d bytes): %w", rec, n, err)
		}
		if buf[n] != '\n' {
			return out, fmt.Errorf("recorder: record %d: length prefix does not land on a record boundary", rec)
		}
		var e Event
		if err := json.Unmarshal(buf[:n], &e); err != nil {
			return out, fmt.Errorf("recorder: record %d: %w", rec, err)
		}
		if e.Seq <= lastSeq {
			return out, fmt.Errorf("recorder: record %d: sequence %d not after %d", rec, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		out = append(out, e)
	}
}
