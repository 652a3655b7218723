package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// TestBoundedReadChunk: chunks round-trip at sizes around the first read,
// a chunk the input ends inside fails with io.ErrUnexpectedEOF, and a
// length over MaxChunk is refused before any of the chunk is read.
func TestBoundedReadChunk(t *testing.T) {
	var chunks [][]byte
	for i, n := range []int{0, 1, firstChunkRead, firstChunkRead + 1, 5*firstChunkRead + 3} {
		chunks = append(chunks, bytes.Repeat([]byte{byte(i + 1)}, n))
	}
	var buf bytes.Buffer
	if err := WriteChunks(&buf, chunks...); err != nil {
		t.Fatal(err)
	}
	for i, want := range chunks {
		got, err := ReadChunk(&buf)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: %d bytes back (%v), wrote %d", i, len(got), err, len(want))
		}
	}
	if _, err := ReadChunk(&buf); err != io.EOF {
		t.Fatalf("read past the last chunk: %v, want io.EOF", err)
	}

	short := append(binary.LittleEndian.AppendUint32(nil, 10), "abc"...)
	if _, err := ReadChunk(bytes.NewReader(short)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated chunk: %v, want io.ErrUnexpectedEOF", err)
	}

	over := bytes.NewReader(append(binary.LittleEndian.AppendUint32(nil, MaxChunk+1), "data"...))
	if _, err := ReadChunk(over); err == nil || over.Len() != len("data") {
		t.Fatalf("oversized chunk: %v with %d of its bytes left unread, want an error before any", err, over.Len())
	}
}
