package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// reframe wraps payload in a frame header with a matching length and
// checksum, so fuzzed bytes reach the payload decoder instead of
// stopping at the CRC check.
func reframe(payload []byte) []byte {
	buf := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// FuzzReadRecord feeds arbitrary bytes to the log record decoder twice:
// as a raw frame, and as a payload under a valid frame header so the
// bytes reach the payload decoder. Decoding must never panic, every
// failure other than a clean EOF must wrap ErrCorrupt, and an accepted
// record must re-encode to exactly the bytes it was read from and
// decode back to itself.
func FuzzReadRecord(f *testing.F) {
	seeds := []*Record{
		{Type: RecDelete, LSN: 7, Rel: "r15", Pred: "val < 40"},
		{Type: RecDelete, LSN: 1},
		{Type: RecCheckpoint, LSN: 9, Snapshot: heapCheckpointName, CoverLSN: 8},
		{Type: RecAppendPages, LSN: 3, Rel: "ev", SchemaHash: 0xfeedface, First: 2},
		{Type: RecAppendPages, LSN: 4, Rel: "ev", SchemaHash: 1, First: 0,
			Pages: [][]byte{{1, 2, 3, 4}, {}, bytes.Repeat([]byte{0xAB}, 64)}},
	}
	for _, rec := range seeds {
		frame := encode(rec)
		f.Add(frame)
		f.Add(frame[frameHeaderLen:])
		for _, cut := range []int{1, frameHeaderLen - 1, frameHeaderLen, len(frame) - 1} {
			f.Add(frame[:cut])
		}
		for _, at := range []int{0, 4, frameHeaderLen, frameHeaderLen + 1, len(frame) - 1} {
			flipped := bytes.Clone(frame)
			flipped[at] ^= 0x10
			f.Add(flipped)
			f.Add(flipped[frameHeaderLen:])
		}
	}
	f.Add(encode(&Record{Type: 1, LSN: 2})) // the retired logical-append type

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecode(t, reframe(data))
	})
}

func checkDecode(t *testing.T, data []byte) {
	rec, n, err := readRecord(bytes.NewReader(data))
	if err == io.EOF {
		if len(data) != 0 {
			t.Fatalf("io.EOF on %d bytes of input", len(data))
		}
		return
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
		}
		return
	}
	again := encode(rec)
	if !bytes.Equal(again, data[:n]) {
		t.Fatalf("re-encoding a %s record changed its bytes", rec.Type)
	}
	rec2, n2, err := readRecord(bytes.NewReader(again))
	if err != nil || n2 != n || !reflect.DeepEqual(rec, rec2) {
		t.Fatalf("decode of the re-encoded %s record is unstable: %v", rec.Type, err)
	}
}

// TestReadRecordLargePayload covers payloads past readPayload's first
// 64 KiB buffer, where the buffer grows as bytes arrive: a whole frame
// decodes back to its record, a truncated one is corrupt, and a frame
// header claiming the maximum length over a few bytes of input costs
// memory for those bytes, not for the claim.
func TestReadRecordLargePayload(t *testing.T) {
	var hdr [frameHeaderLen + 16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxRecordLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := readRecord(bytes.NewReader(hdr[:])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("frame claiming %d bytes: err = %v, want ErrCorrupt", maxRecordLen, err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a %d-byte frame claim allocated %d bytes", len(hdr), grew)
	}

	rec := &Record{Type: RecAppendPages, LSN: 5, Rel: "ev", First: 1,
		Pages: [][]byte{bytes.Repeat([]byte{1}, 40<<10), bytes.Repeat([]byte{2}, 40<<10), bytes.Repeat([]byte{3}, 50<<10)}}
	frame := encode(rec)
	got, n, err := readRecord(bytes.NewReader(frame))
	if err != nil || n != int64(len(frame)) || !reflect.DeepEqual(got, rec) {
		t.Fatalf("large record did not round-trip (n=%d of %d): %v", n, len(frame), err)
	}
	if _, _, err := readRecord(bytes.NewReader(frame[:len(frame)-1])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated large record: err = %v, want ErrCorrupt", err)
	}
}
