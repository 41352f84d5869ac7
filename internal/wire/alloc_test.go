package wire

import (
	"bytes"
	"io"
	"testing"
)

// pageFrame is a steady-state result frame: a 16 KiB page blob past
// the first page of a result (no schema).
func pageFrame() *ResultPage {
	blob := make([]byte, 16<<10)
	for i := range blob {
		blob[i] = byte(i)
	}
	return &ResultPage{QueryID: 7, Seq: 3, Page: blob}
}

// countingWriter counts Write calls and keeps the bytes.
type countingWriter struct {
	calls int
	buf   bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	return w.buf.Write(p)
}

// TestWriteVersionOneWriteNoAllocs: a frame leaves in one Write of one
// reused buffer, so steady-state encoding allocates nothing.
func TestWriteVersionOneWriteNoAllocs(t *testing.T) {
	f := pageFrame()
	var w countingWriter
	if err := WriteVersion(&w, f, Version); err != nil {
		t.Fatal(err)
	}
	if w.calls != 1 {
		t.Fatalf("WriteVersion made %d Write calls, want 1", w.calls)
	}
	got, err := Read(&w.buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.(*ResultPage).Page, f.Page) {
		t.Fatal("frame did not round-trip")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := WriteVersion(io.Discard, f, Version); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WriteVersion of a 16 KiB result page: %.1f allocations, want 0", allocs)
	}
}

// TestReadVersionAllocs pins the decoder's steady-state allocations
// for a 16 KiB result page: the header, the payload the frame owns,
// the frame and the decoder. The page blob aliases the payload rather
// than being copied out of it.
func TestReadVersionAllocs(t *testing.T) {
	f := pageFrame()
	var buf bytes.Buffer
	if err := WriteVersion(&buf, f, Version); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	r := bytes.NewReader(wire)
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(wire)
		if _, err := ReadVersion(r, Version); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4 {
		t.Errorf("ReadVersion of a 16 KiB result page: %.1f allocations, want 4", allocs)
	}
}

// TestReadVersionPageOwnsPayload: a decoded page blob is the frame's
// own memory — independent of the reader's buffer, and capped so that
// appending to it cannot overwrite anything after it.
func TestReadVersionPageOwnsPayload(t *testing.T) {
	f := pageFrame()
	var buf bytes.Buffer
	if err := WriteVersion(&buf, f, Version); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), buf.Bytes()...)
	got, err := Read(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	page := got.(*ResultPage).Page
	for i := range wire {
		wire[i] = 0
	}
	if !bytes.Equal(page, f.Page) {
		t.Fatal("decoded page aliases the reader's buffer")
	}
	if cap(page) != len(page) {
		t.Fatalf("decoded page has capacity %d beyond its %d bytes", cap(page), len(page))
	}
}
