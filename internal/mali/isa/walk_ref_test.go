package isa

// This file keeps the per-page MMU walk as the reference the range walk
// (Mem.forEachRun over gpumem.Walker.Walk) is checked against
// (TestRangeWalkMatchesPerPage, FuzzRangeWalkMatchesPerPage). refMem's
// methods are Mem's bodies from before the range walk: every operation
// translates one page at a time through Walker.Translate and hands its
// callback one page's chunk.

import (
	"encoding/binary"
	"fmt"
	"math"

	"gpurelay/internal/gpumem"
)

// refMem is Mem walked page by page.
type refMem struct{ Mem }

func (m refMem) translate(va gpumem.VA, need gpumem.PTEFlag) (gpumem.PA, error) {
	pa, flags, ok := m.Walker.Translate(va)
	if !ok {
		return 0, &Fault{VA: va, Reason: "translation fault"}
	}
	if flags&need != need {
		return 0, &Fault{VA: va, Reason: fmt.Sprintf("permission fault: have %v need %v", flags, need)}
	}
	return pa, nil
}

// forEachPage invokes fn for every physically contiguous chunk of the VA
// range [va, va+n), one page at a time.
func (m refMem) forEachPage(va gpumem.VA, n uint64, need gpumem.PTEFlag, fn func(pa gpumem.PA, off, cnt uint64) error) error {
	for off := uint64(0); off < n; {
		pa, err := m.translate(va+gpumem.VA(off), need)
		if err != nil {
			return err
		}
		chunk := gpumem.PageSize - uint64(pa)%gpumem.PageSize
		if n-off < chunk {
			chunk = n - off
		}
		if err := fn(pa, off, chunk); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

func (m refMem) checkRange(va gpumem.VA, n uint64, need gpumem.PTEFlag) error {
	return m.forEachPage(va, n, need, func(gpumem.PA, uint64, uint64) error { return nil })
}

func (m refMem) ReadBytes(va gpumem.VA, n uint64, need gpumem.PTEFlag) ([]byte, error) {
	if err := m.checkRange(va, n, need); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	err := m.forEachPage(va, n, need, func(pa gpumem.PA, off, cnt uint64) error {
		m.Pool.Read(pa, out[off:off+cnt])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (m refMem) LoadF32(va gpumem.VA, n int) ([]float32, error) {
	if err := m.checkRange(va, uint64(n)*4, gpumem.PTERead); err != nil {
		return nil, err
	}
	out := make([]float32, n)
	var page [gpumem.PageSize]byte
	var carry [4]byte
	k, nc := 0, 0
	err := m.forEachPage(va, uint64(n)*4, gpumem.PTERead, func(pa gpumem.PA, _, cnt uint64) error {
		buf := page[:cnt]
		m.Pool.Read(pa, buf)
		if nc > 0 {
			t := copy(carry[nc:], buf)
			if nc += t; nc < 4 {
				return nil
			}
			out[k] = math.Float32frombits(binary.LittleEndian.Uint32(carry[:]))
			k, nc, buf = k+1, 0, buf[t:]
		}
		for ; len(buf) >= 4; buf = buf[4:] {
			out[k] = math.Float32frombits(binary.LittleEndian.Uint32(buf))
			k++
		}
		nc = copy(carry[:], buf)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (m refMem) StoreF32(va gpumem.VA, data []float32) error {
	raw := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return m.forEachPage(va, uint64(len(raw)), gpumem.PTEWrite, func(pa gpumem.PA, off, cnt uint64) error {
		m.Pool.Write(pa, raw[off:off+cnt])
		return nil
	})
}

func (m refMem) rangeZero(va gpumem.VA, n uint64) bool {
	return m.forEachPage(va, n, gpumem.PTERead, func(pa gpumem.PA, _, cnt uint64) error {
		if m.Pool.RangeMaterialized(pa, cnt) {
			return errMaterialized
		}
		return nil
	}) == nil
}

func (m refMem) zeroOut(va gpumem.VA, n uint64) error {
	return m.forEachPage(va, n, gpumem.PTEWrite, func(pa gpumem.PA, off, cnt uint64) error {
		m.Pool.ZeroRange(pa, cnt)
		return nil
	})
}
