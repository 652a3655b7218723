package gpumem

import (
	"math/bits"
	"sync"
)

// Size-classed buffer recycling for the snapshot/encode/restore hot path.
// Buffers are allocated at their exact requested size and filed under the
// power-of-two class floor(log2(cap)), so a class-c pool holds buffers with
// capacity in [2^c, 2^(c+1)). A get pops from the requested size's floor
// class and verifies the capacity actually fits — the steady state of the
// sync pipeline requests the same region sizes over and over, so the popped
// buffer is almost always an exact fit. Buffers are handed out dirty —
// callers that need zeroed memory must clear (captureRegion zeroes only
// unmaterialized spans, codec paths overwrite every byte).
//
// Recycling is cooperative: a buffer that is never returned is simply
// garbage-collected, so handing pooled buffers to callers outside this
// package is safe. The inverse is not: putBuf must only see buffers that no
// snapshot references anymore (see Snapshot.Release).

const (
	bufMinShift = 12 // 4 KB, one page
	bufMaxShift = 30 // 1 GB+: everything larger shares the top class
)

var bufClasses [bufMaxShift + 1]sync.Pool

// bufClass files capacity c: floor(log2(c)), clamped to the class range.
func bufClass(c int) int {
	cls := bits.Len(uint(c)) - 1
	if cls < bufMinShift {
		return bufMinShift
	}
	if cls > bufMaxShift {
		return bufMaxShift
	}
	return cls
}

// getBuf returns a buffer of length n with at least n capacity, reusing a
// pooled one when available. Contents are unspecified.
func getBuf(n int) []byte {
	b, _ := getBufZ(n)
	return b
}

// getBufZ is getBuf plus a flag: zeroed is true when the buffer is a fresh
// allocation and therefore already all-zero — callers filling sparse
// snapshots skip the explicit zeroing of unmaterialized spans on that path.
func getBufZ(n int) (b []byte, zeroed bool) {
	if n == 0 {
		return nil, true
	}
	if v := bufClasses[bufClass(n)].Get(); v != nil {
		if b := *v.(*[]byte); cap(b) >= n {
			return b[:n], false
		}
		// Same class but smaller capacity (mixed sizes): let it go rather
		// than hold the pool's slot with a buffer this size never fits.
	}
	return make([]byte, n), true
}

// putBuf recycles a buffer. The caller must not touch it afterwards. The
// slice header the pool keeps is a variable of its own, so that only a call
// that recycles allocates it: a nil or small b costs nothing.
func putBuf(b []byte) {
	if cap(b) < 1<<bufMinShift {
		return
	}
	kept := b[:0]
	bufClasses[bufClass(cap(kept))].Put(&kept)
}
