package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"gpurelay/internal/obs"
)

func testBundle(t *testing.T) *Bundle {
	t.Helper()
	flight := []obs.FlightEvent{
		{Seq: 1, VT: time.Millisecond, Session: "sess-9", Kind: obs.FKResync, Note: "begin"},
		{Seq: 2, VT: 2 * time.Millisecond, Session: "sess-9", Kind: obs.FKResync, Note: "diverged"},
	}
	reg := obs.NewRegistry()
	reg.Add(obs.MFleetSessions, 3)
	q := Entry{Fingerprint: "deadbeefdeadbeef", Reason: ReasonBadRecording, Detail: "short payload", Bytes: 12}
	return CaptureBundle("sess-9", errors.New("metastate fingerprint diverged"),
		2*time.Millisecond, flight, reg.Snapshot(), &q)
}

func TestBundleSealRoundTrip(t *testing.T) {
	b := testBundle(t)
	key := bytes.Repeat([]byte{0x42}, 32)
	signed, err := b.Seal(key)
	if err != nil {
		t.Fatal(err)
	}
	back, err := OpenBundle(signed.Payload, signed.MAC[:], key)
	if err != nil {
		t.Fatal(err)
	}
	if back.Session != "sess-9" || back.Reason != b.Reason || back.VTNS != b.VTNS {
		t.Errorf("round trip: got %+v, want %+v", back, b)
	}
	if len(back.Flight) != 2 || back.Flight[1].Note != "diverged" {
		t.Errorf("flight tail lost: %+v", back.Flight)
	}
	if back.Quarantine == nil || back.Quarantine.Fingerprint != "deadbeefdeadbeef" {
		t.Errorf("quarantine entry lost: %+v", back.Quarantine)
	}
	if back.Fingerprint != "deadbeefdeadbeef" {
		t.Errorf("bundle fingerprint %q, want the quarantine entry's", back.Fingerprint)
	}
	if !strings.Contains(back.Metrics, obs.MFleetSessions) {
		t.Errorf("metrics snapshot missing %s:\n%s", obs.MFleetSessions, back.Metrics)
	}
	if r := back.Render(); !strings.Contains(r, "sess-9") || !strings.Contains(r, "diverged") {
		t.Errorf("Render() missing session or flight tail:\n%s", r)
	}
}

func TestBundleSealTamperEvident(t *testing.T) {
	b := testBundle(t)
	key := bytes.Repeat([]byte{0x42}, 32)
	signed, err := b.Seal(key)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), signed.Payload...)
	tampered[len(tampered)/2] ^= 1
	if _, err := OpenBundle(tampered, signed.MAC[:], key); err == nil {
		t.Error("tampered payload verified")
	}
	wrongKey := bytes.Repeat([]byte{0x43}, 32)
	if _, err := OpenBundle(signed.Payload, signed.MAC[:], wrongKey); err == nil {
		t.Error("wrong key verified")
	}
	if _, err := OpenBundle(signed.Payload, signed.MAC[:8], key); err == nil {
		t.Error("truncated MAC accepted")
	}
}

func TestBundleFileRoundTrip(t *testing.T) {
	b := testBundle(t)
	key := bytes.Repeat([]byte{0x07}, 32)
	signed, err := b.Seal(key)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeBundleFile(&buf, signed, key); err != nil {
		t.Fatal(err)
	}
	// The GRTD layout: magic, then payload, MAC and key, each behind its
	// uint32-LE length.
	want := []byte(BundleMagic)
	for _, c := range [][]byte{signed.Payload, signed.MAC[:], key} {
		want = append(binary.LittleEndian.AppendUint32(want, uint32(len(c))), c...)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("the GRTD file layout changed")
	}
	payload, mac, fileKey, err := DecodeBundleFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileKey, key) {
		t.Error("key chunk corrupted")
	}
	back, err := OpenBundle(payload, mac, fileKey)
	if err != nil {
		t.Fatal(err)
	}
	if back.Reason != b.Reason {
		t.Errorf("reason %q, want %q", back.Reason, b.Reason)
	}

	// Corruption cases: wrong magic, truncation, trailing garbage.
	if _, _, _, err := DecodeBundleFile(strings.NewReader("GRTB rest")); err == nil {
		t.Error("wrong magic accepted")
	}
	if _, _, _, err := DecodeBundleFile(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated file accepted")
	}
	withTrailer := append(append([]byte(nil), buf.Bytes()...), "junk"...)
	if _, _, _, err := DecodeBundleFile(bytes.NewReader(withTrailer)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// spaces is an endless source of ASCII spaces that counts the bytes it
// hands out.
type spaces struct{ n int }

func (s *spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	s.n += len(p)
	return len(p), nil
}

// TestBoundedReadBundleTrailer: a GRTD file may end in a newline, but one
// followed by 64 MiB of trailer is refused after reading at most 64 KiB past
// its chunks.
func TestBoundedReadBundleTrailer(t *testing.T) {
	key := bytes.Repeat([]byte{0x07}, 32)
	signed, err := testBundle(t).Seal(key)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := EncodeBundleFile(&file, signed, key); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeBundleFile(io.MultiReader(bytes.NewReader(file.Bytes()), strings.NewReader("\n"))); err != nil {
		t.Fatalf("a bundle file ending in a newline: %v", err)
	}
	trailer := &spaces{}
	_, _, _, err = DecodeBundleFile(io.MultiReader(bytes.NewReader(file.Bytes()), io.LimitReader(trailer, 64<<20)))
	if err == nil {
		t.Fatal("a bundle file with a 64 MiB trailer was accepted")
	}
	if trailer.n > 64<<10 {
		t.Fatalf("read %d trailer bytes past the chunks", trailer.n)
	}
}

func TestBundleLogRing(t *testing.T) {
	l := NewBundleLog(2)
	if _, ok := l.Last(); ok {
		t.Error("empty log reported a last bundle")
	}
	for i := 0; i < 3; i++ {
		l.Add(SealedBundle{Bundle: &Bundle{Schema: BundleSchema, Detail: string(rune('a' + i))}})
	}
	if l.Total() != 3 {
		t.Errorf("Total = %d, want 3", l.Total())
	}
	ents := l.Entries()
	if len(ents) != 2 || ents[0].Bundle.Detail != "b" || ents[1].Bundle.Detail != "c" {
		t.Errorf("Entries = %v, want details b,c oldest-first", ents)
	}
	last, ok := l.Last()
	if !ok || last.Bundle.Detail != "c" {
		t.Errorf("Last = %+v ok=%v, want detail c", last, ok)
	}

	var nilLog *BundleLog
	nilLog.Add(SealedBundle{}) // must not panic
	if nilLog.Total() != 0 || nilLog.Entries() != nil {
		t.Error("nil log reported state")
	}
}
