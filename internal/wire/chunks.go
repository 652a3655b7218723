package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The artifacts GR-T keeps on untrusted storage — recording bundles (GRTB,
// GRTP), checkpoint files (GRTC), diagnostic bundles (GRTD) and the
// plaintext of a device-sealed recording — are sequences of chunks, each a
// uint32-LE byte count followed by that many bytes. WriteChunks and
// ReadChunk are the one writer and reader of that framing; each format
// adds its own magic around them.

// MaxChunk bounds one chunk a reader accepts. A declared length past it is
// refused before any of the chunk is read.
const MaxChunk = 1 << 30

// firstChunkRead is the most a chunk's buffer holds before its first bytes
// arrive; it then doubles as they do, up to the declared length.
const firstChunkRead = 64 << 10

// WriteChunks writes each chunk as its uint32-LE length and its bytes.
func WriteChunks(w io.Writer, chunks ...[]byte) error {
	for _, c := range chunks {
		if _, err := w.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(c)))); err != nil {
			return err
		}
		if _, err := w.Write(c); err != nil {
			return err
		}
	}
	return nil
}

// ReadChunk reads one chunk WriteChunks wrote. Its buffer grows as the
// bytes arrive, so a length prefix the input does not back costs at most
// about the bytes the input really holds. A reader that ends inside the
// chunk fails with io.ErrUnexpectedEOF; one that ends before it, with
// io.EOF.
func ReadChunk(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > MaxChunk {
		return nil, fmt.Errorf("wire: chunk of %d bytes exceeds the %d-byte limit", n, MaxChunk)
	}
	b := make([]byte, min(n, firstChunkRead))
	for off := 0; ; {
		m, err := io.ReadFull(r, b[off:])
		if off += m; off == n {
			return b, nil
		}
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		b = append(b, make([]byte, min(n-off, len(b)))...)
	}
}
