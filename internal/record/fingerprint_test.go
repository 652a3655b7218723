package record

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpurelay/internal/gpumem"
)

// referenceFingerprint is the original fingerprint loop, kept as the oracle
// for the one-pass builder: checkpoints carry a hash of its output, so the
// two must agree byte for byte.
func referenceFingerprint(regions []*gpumem.Region) string {
	fp := ""
	for _, r := range regions {
		fp += fmt.Sprintf("%s:%x:%x;", r.Name, r.PA, r.Size)
	}
	return fp
}

func TestFingerprintMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(18))
	names := []string{"", "cmds", "pt@1f000", "a:b", "x;y", ":;:;", "weights:0;scratch"}
	edges := []uint64{0, 1, 0xf, 0x10, math.MaxUint32, math.MaxUint64}
	pick := func() uint64 {
		if rnd.Intn(3) == 0 {
			return edges[rnd.Intn(len(edges))]
		}
		return rnd.Uint64() >> uint(rnd.Intn(64))
	}
	for _, n := range []int{0, 1, 2, 7, 64, 333, 1000} {
		regions := make([]*gpumem.Region, n)
		for i := range regions {
			regions[i] = &gpumem.Region{
				Name: names[rnd.Intn(len(names))] + fmt.Sprint(i),
				PA:   gpumem.PA(pick()),
				Size: pick(),
			}
		}
		if n > 0 {
			regions[0].PA, regions[0].Size = 0, 0
			regions[n-1].PA, regions[n-1].Size = math.MaxUint64, math.MaxUint64
		}
		if got, want := fingerprint(regions), referenceFingerprint(regions); got != want {
			t.Fatalf("%d regions: fingerprint differs from the reference\n got %q\nwant %q", n, got, want)
		}
	}
}
