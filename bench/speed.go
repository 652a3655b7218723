package main

// Host-time metrics are reported at a reference host speed. The shared hosts
// this benchmark runs on change speed by 20-30% within a minute, for every
// process on them, so raw times of the same code spread wider across runs
// than the regressions they must catch. Each run therefore times a fixed unit
// of standard-library work (DEFLATE of a seeded 256 KB buffer) every
// sampleEvery, between ops, and scales each host time by refUnitMs over the
// unit's time around it. The unit runs no gpurelay code, so a change to the
// program moves the scaled times as it moves the raw ones; a change in host
// speed moves the unit too and cancels out.

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// refUnitMs is the unit's time on an idle reference host (2-vCPU Intel Xeon
// VM), so scaled times read as milliseconds there.
const refUnitMs = 8.0

// sampleEvery is how often a loop stops to time the unit: about 3% of its
// time.
const sampleEvery = 250 * time.Millisecond

// speedProbe times the unit and keeps every sample, in time order.
type speedProbe struct {
	mu     sync.Mutex
	data   []byte
	buf    bytes.Buffer
	w      *flate.Writer
	due    time.Time
	at     []time.Time // end of each sample
	unitMs []float64
}

func newSpeedProbe() *speedProbe {
	rng := rand.New(rand.NewSource(1))
	p := &speedProbe{data: make([]byte, 256<<10)}
	for i := range p.data {
		p.data[i] = byte(rng.Intn(16)) // compressible, as a dump is
	}
	p.w, _ = flate.NewWriter(&p.buf, flate.DefaultCompression) // fails only for an invalid level
	p.unit()                                                   // the first run pays for page faults
	return p
}

// unit runs the work and returns its time. It allocates nothing after the
// first run, so it does not feed the loop's garbage collector. The caller
// holds p.mu or owns p.
func (p *speedProbe) unit() time.Duration {
	start := time.Now()
	p.buf.Reset()
	p.w.Reset(&p.buf)
	_, _ = p.w.Write(p.data) // writes to a bytes.Buffer do not fail
	_ = p.w.Close()
	return time.Since(start)
}

// sample times the unit now and returns the sample's index.
func (p *speedProbe) sample() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.take()
}

// tick samples when a sample is due. Loops call it between ops; holding the
// lock through the sample keeps concurrent loops from taking it twice.
func (p *speedProbe) tick() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !time.Now().Before(p.due) {
		p.take()
	}
}

// take times the unit and keeps the sample. The caller holds p.mu.
func (p *speedProbe) take() int {
	d := p.unit()
	now := time.Now()
	p.at = append(p.at, now)
	p.unitMs = append(p.unitMs, ms(d))
	p.due = now.Add(sampleEvery)
	return len(p.at) - 1
}

// span returns the time from the end of sample i to the end of sample j,
// less the samples in between: raw, at reference speed (each stretch between
// two samples scaled as an op at its middle would be), and the time the
// samples took.
func (p *speedProbe) span(i, j int) (raw, scaled, probed time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := i + 1; k <= j; k++ {
		unit := time.Duration(p.unitMs[k] * float64(time.Millisecond))
		d := p.at[k].Sub(p.at[k-1]) - unit
		raw += d
		scaled += time.Duration(float64(d) * p.scaleAt(p.at[k-1].Add(d/2)))
		probed += unit
	}
	return raw, scaled, probed
}

// scaled returns each time at reference speed.
func (p *speedProbe) scaled(ts []opTime) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]float64, len(ts))
	for k, t := range ts {
		out[k] = t.ms * p.scaleAt(t.mid)
	}
	return out
}

// scaleAt is refUnitMs over the median of the four samples nearest t, two
// before and two after. The caller holds p.mu.
func (p *speedProbe) scaleAt(t time.Time) float64 {
	i := sort.Search(len(p.at), func(i int) bool { return p.at[i].After(t) })
	return refUnitMs / median(p.unitMs[max(0, i-2):min(len(p.at), i+2)])
}
