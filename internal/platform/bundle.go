package platform

import (
	"encoding/binary"
	"fmt"
	"io"

	"gpurelay/internal/wire"
)

// The multi-GPU recording artifact is a container of independently signed
// per-GPU recordings, not one merged trace: each GPU's event stream replays
// against its own pool and page tables (their virtual address spaces
// overlap), so the honest artifact is N verifiable recordings stitched
// side by side. For a single GPU the container degenerates to exactly the
// bundle grtrecord has always written — same "GRTB" magic, same three
// length-prefixed chunks (wire.WriteChunks) — so every existing bundle
// remains a valid 1-GPU platform bundle and vice versa.
const (
	// singleMagic is grtrecord's classic single-recording bundle magic.
	singleMagic = "GRTB"
	// multiMagic marks an N-GPU platform bundle (N ≥ 2): magic, a uint32
	// GPU count, then each GPU's three chunks in GPU order.
	multiMagic = "GRTP"
	// checkpointMagic marks grtrecord's checkpoint file: one sealed
	// checkpoint's three chunks, laid out as a single-GPU bundle.
	checkpointMagic = "GRTC"
)

// maxBundleSessions bounds the per-GPU session count a bundle may declare.
const maxBundleSessions = 4096

// Entry is one GPU's share of a bundle: the signed recording payload, its
// HMAC, and the session key that verifies it (bundled for the demo CLIs —
// a real deployment keeps keys in the TEE's secure storage, exactly as
// grtrecord notes for the single-GPU format).
type Entry struct {
	Payload []byte
	MAC     []byte
	Key     []byte
}

// WriteBundle serializes per-GPU entries. One entry produces the classic
// single-GPU "GRTB" layout byte for byte; two or more produce the "GRTP"
// container.
func WriteBundle(w io.Writer, entries []Entry) error {
	if len(entries) == 0 {
		return fmt.Errorf("platform: empty bundle")
	}
	if len(entries) == 1 {
		if _, err := io.WriteString(w, singleMagic); err != nil {
			return err
		}
		return writeEntry(w, entries[0])
	}
	if _, err := io.WriteString(w, multiMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(entries))); err != nil {
		return err
	}
	for _, e := range entries {
		if err := writeEntry(w, e); err != nil {
			return err
		}
	}
	return nil
}

func writeEntry(w io.Writer, e Entry) error { return wire.WriteChunks(w, e.Payload, e.MAC, e.Key) }

// ReadBundle parses either bundle layout and returns the per-GPU entries in
// GPU order (length 1 for a classic single-GPU bundle). Decoding is bounded
// by wire.ReadChunk: a corrupt or hostile length prefix fails instead of
// allocating more than the input holds.
func ReadBundle(r io.Reader) ([]Entry, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("platform: reading bundle magic: %w", err)
	}
	switch string(magic) {
	case singleMagic:
		e, err := readEntry(r)
		if err != nil {
			return nil, err
		}
		return []Entry{e}, nil
	case multiMagic:
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("platform: reading bundle session count: %w", err)
		}
		if n < 2 || n > maxBundleSessions {
			return nil, fmt.Errorf("platform: implausible bundle session count %d", n)
		}
		entries := make([]Entry, 0, n)
		for i := uint32(0); i < n; i++ {
			e, err := readEntry(r)
			if err != nil {
				return nil, fmt.Errorf("platform: session %d: %w", i, err)
			}
			entries = append(entries, e)
		}
		return entries, nil
	}
	return nil, fmt.Errorf("platform: not a recording bundle (magic %q)", magic)
}

// ReadSingle reads a bundle that must hold exactly one recording (the
// classic replay and compare paths), bounded as ReadBundle is.
func ReadSingle(r io.Reader) (Entry, error) {
	entries, err := ReadBundle(r)
	if err != nil {
		return Entry{}, err
	}
	if len(entries) != 1 {
		return Entry{}, fmt.Errorf("platform: bundle holds %d per-GPU recordings; expected a single-GPU bundle",
			len(entries))
	}
	return entries[0], nil
}

func readEntry(r io.Reader) (Entry, error) {
	var e Entry
	var err error
	for _, c := range []*[]byte{&e.Payload, &e.MAC, &e.Key} {
		if *c, err = wire.ReadChunk(r); err != nil {
			return Entry{}, fmt.Errorf("platform: reading chunk: %w", err)
		}
	}
	return e, nil
}

// WriteCheckpoint writes a sealed checkpoint (payload, MAC, session key) as
// grtrecord's checkpoint file.
func WriteCheckpoint(w io.Writer, e Entry) error {
	if _, err := io.WriteString(w, checkpointMagic); err != nil {
		return err
	}
	return writeEntry(w, e)
}

// ReadCheckpoint parses a checkpoint file WriteCheckpoint wrote, bounded as
// ReadBundle is.
func ReadCheckpoint(r io.Reader) (Entry, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != checkpointMagic {
		return Entry{}, fmt.Errorf("platform: not a checkpoint file")
	}
	return readEntry(r)
}
