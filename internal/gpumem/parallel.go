package gpumem

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelMinBytes gates the worker pool: fan-out only pays for itself when
// the per-region work (raw payload copies and undeltas) moves enough memory.
// Below the threshold the serial loop wins on latency and allocates nothing.
const parallelMinBytes = 1 << 20

// parallelFor runs fn(i) for every i in [0,n) on a bounded worker pool of at
// most GOMAXPROCS goroutines. Each index is processed exactly once; the
// caller supplies per-index output slots, so results are deterministic
// regardless of scheduling. work is the total number of bytes fn will touch:
// small batches run inline on the calling goroutine.
func parallelFor(n int, work int64, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 || work < parallelMinBytes {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
