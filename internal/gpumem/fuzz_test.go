package gpumem

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"gpurelay/internal/fuzzcorpus"
	"gpurelay/internal/wire"
)

var snapFuzzLimits = wire.DecodeLimits{
	MaxRegions:   64,
	MaxStringLen: 256,
	MaxDumpBytes: 1 << 20,
	MaxAlloc:     4 << 20,
}

// fuzzSnapshot is a small two-region snapshot with compressible and
// incompressible content, so raw, compressed, and delta encodings all have
// distinct wire shapes.
func fuzzSnapshot() *Snapshot {
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i * 7)
	}
	return &Snapshot{Regions: []RegionSnapshot{
		{Name: "cmds", Kind: KindCommands, VA: 0x1000, PA: 0x4000, Data: data},
		{Name: "out", Kind: KindOutput, VA: 0x2000, PA: 0x8000, Data: make([]byte, 256)},
	}}
}

// snapFuzzSeeds encodes the fixture every way the syncer does.
func snapFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	base := fuzzSnapshot()
	raw, err := base.Encode(nil, EncodeOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	comp, err := base.Encode(nil, EncodeOptions{Compress: true})
	if err != nil {
		tb.Fatal(err)
	}
	next := fuzzSnapshot()
	next.Regions[0].Data[0] ^= 0xFF
	delta, err := next.Encode(base, EncodeOptions{Delta: true, Compress: true})
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{raw, comp, delta, raw[:len(raw)/2], []byte("GRMD"),
		craftedDump(2, rangeCodeRLE(bytes.Repeat([]byte{0x5A}, 33))),
		craftedDump(2, rangeCodeRLE([]byte{0, 0, 0, 16})),
		craftedDump(2, shortBody),
	}
}

// craftedDump wraps a hand-built body in a dump of one 16-byte region with
// the given flags, so tests reach stream rules the encoder never breaks.
func craftedDump(flags uint8, body []byte) []byte {
	s := &Snapshot{Regions: []RegionSnapshot{
		{Name: "cmds", Kind: KindCommands, VA: 0x1000, PA: 0x4000, Data: make([]byte, 16)},
	}}
	n := s.headerLen()
	out := make([]byte, n+4+len(body))
	s.putHeader(out, flags)
	binary.LittleEndian.PutUint32(out[n:], uint32(len(body)))
	copy(out[n+4:], body)
	return out
}

// shortBody claims a 32-byte RLE stream but carries only the coder's
// five-byte preamble; past it the decoder reads zeros.
var shortBody = append(binary.AppendUvarint(nil, 32), 0, 0, 0, 0, 0)

// TestDecodeRejectsCorruption is the gpumem corruption table: every way a
// dump can lie about its payload fails, through Decode and through
// ParseDump+Apply alike.
func TestDecodeRejectsCorruption(t *testing.T) {
	lit := func(n int) []byte { return bytes.Repeat([]byte{0x5A}, n) }
	for _, tc := range []struct {
		name string
		dump []byte
		prev *Snapshot
		want string
	}{
		{"rle longer than twice the payload", craftedDump(2, rangeCodeRLE(lit(33))), nil, "exceeds twice"},
		{"zero-length run", craftedDump(2, rangeCodeRLE([]byte{0, 0, 0, 16})), nil, "zero-length run"},
		{"short body claiming a long stream", craftedDump(2, shortBody), nil, "zero-length run"},
		{"run past the payload", craftedDump(2, rangeCodeRLE([]byte{0, 17})), nil, "run overflows"},
		{"literal past the payload", craftedDump(2, rangeCodeRLE(lit(17))), nil, "literal overflows"},
		{"short expansion", craftedDump(2, rangeCodeRLE([]byte{0, 15})), nil, "fewer than 16"},
		{"unterminated run", craftedDump(2, rangeCodeRLE([]byte{1, 0})), nil, "corrupt zero run"},
		{"overlong run length", craftedDump(2, rangeCodeRLE(append([]byte{0}, bytes.Repeat([]byte{0x80}, 11)...))), nil, "corrupt zero run"},
		{"truncated coder", craftedDump(2, []byte{16, 1, 2}), nil, "truncated stream"},
		{"raw payload short", craftedDump(0, lit(15)), nil, "regions need 16"},
		{"delta without base", craftedDump(3, rangeCodeRLE([]byte{0, 16})), nil, "requires its base"},
		{"delta on another shape", craftedDump(3, rangeCodeRLE([]byte{0, 16})), fuzzSnapshot(), "mismatched base"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeLimited(tc.dump, tc.prev, snapFuzzLimits); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode: err = %v, want %q", err, tc.want)
			}
			d, err := ParseDump(tc.dump, snapFuzzLimits)
			if err == nil {
				_, err = d.Apply(tc.prev)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseDump+Apply: err = %v, want %q", err, tc.want)
			}
		})
	}
}

// Apply patches a delta base in place — literals XORed, zero runs left
// alone — and gives a full dump a clean image even over dirty buffers.
func TestDumpApply(t *testing.T) {
	base := &Snapshot{Regions: []RegionSnapshot{{Data: bytes.Repeat([]byte{0x11}, 16)}}}
	d, err := ParseDump(craftedDump(3, rangeCodeRLE([]byte{0, 4, 0xFF, 0x01, 0, 10})), snapFuzzLimits)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x11}, 16)
	want[4], want[5] = 0xEE, 0x10
	if got != base || !bytes.Equal(got.Regions[0].Data, want) || got.Regions[0].Name != "cmds" {
		t.Fatalf("delta apply gave %x (%q), want %x in place", got.Regions[0].Data, got.Regions[0].Name, want)
	}

	full := craftedDump(2, rangeCodeRLE([]byte{0, 2, 7, 0, 13}))
	d, err = ParseDump(full, snapFuzzLimits)
	if err != nil {
		t.Fatal(err)
	}
	buf := got.Regions[0].Data
	got, err = d.Apply(got)
	if err != nil {
		t.Fatal(err)
	}
	want = make([]byte, 16)
	want[2] = 7
	if !bytes.Equal(got.Regions[0].Data, want) || &got.Regions[0].Data[0] != &buf[0] {
		t.Fatalf("full apply gave %x, want %x in the reused buffer", got.Regions[0].Data, want)
	}
	dec, err := Decode(full, nil)
	if err != nil || !bytes.Equal(dec.Regions[0].Data, want) {
		t.Fatalf("Decode gave %v, %v; want %x", dec, err, want)
	}
}

// FuzzDecodeSnapshot asserts the bounded snapshot decoder never panics,
// on both the full and the delta (previous-snapshot) paths.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range snapFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := DecodeLimited(data, nil, snapFuzzLimits); err == nil {
			s.Release()
		}
		prev := fuzzSnapshot()
		if s, err := DecodeLimited(data, prev, snapFuzzLimits); err == nil {
			s.Release()
		}
	})
}

// A truncated snapshot header declaring a huge region count must fail on the
// count-versus-remaining check, not allocate.
func TestDecodeHugeRegionCount(t *testing.T) {
	raw, err := fuzzSnapshot().Encode(nil, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), raw[:16]...)
	// Region count sits right after magic and flags: bytes [5, 9).
	mut[5], mut[6], mut[7], mut[8] = 0xFF, 0xFF, 0xFF, 0x0F
	if _, err := Decode(mut, nil); err == nil {
		t.Fatal("huge region count accepted")
	}
}

// A snapshot whose declared payloads exceed the dump budget is rejected
// before the region buffers are materialized.
func TestDecodeDumpBudget(t *testing.T) {
	raw, err := fuzzSnapshot().Encode(nil, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lim := snapFuzzLimits
	lim.MaxDumpBytes = 256 // fixture carries 512+256 payload bytes
	if _, err := DecodeLimited(raw, nil, lim); err == nil {
		t.Fatal("dump budget not enforced")
	}
}

func TestUpdateFuzzCorpus(t *testing.T) {
	seeds := snapFuzzSeeds(t)
	if !fuzzcorpus.Update() {
		t.Skipf("set %s=1 to regenerate testdata/fuzz", fuzzcorpus.UpdateEnv)
	}
	for _, s := range seeds {
		if err := fuzzcorpus.WriteSeed("FuzzDecodeSnapshot", s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range rangeCoderFuzzSeeds() {
		if err := fuzzcorpus.WriteSeed("FuzzRangeCoderMatchesReference", s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range codecFuzzSeeds(t) {
		if err := fuzzcorpus.WriteSeed("FuzzCodecMatchesStateless", s[0], s[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range deltaFuzzSeeds() {
		if err := fuzzcorpus.WriteSeed("FuzzDeltaEncodeMatchesReference", s[0], s[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range pagewiseFuzzSeeds() {
		if err := fuzzcorpus.WriteSeed("FuzzPagewiseSyncMatchesWhole", s[0], s[1]); err != nil {
			t.Fatal(err)
		}
	}
}
