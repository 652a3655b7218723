package record

import (
	"fmt"
	"testing"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/kbase"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/timesim"
)

// newLayoutSyncer loads MNIST on a directly driven GPU over a cloud pool
// and returns a meta-only syncer between that pool and a client pool of the
// same size, released when the test ends.
func newLayoutSyncer(t *testing.T) *syncer {
	t.Helper()
	clock := timesim.NewClock()
	m := mlfw.MNIST()
	size := poolSizeFor(m)
	cloud := gpumem.NewPool(size)
	gpu := mali.New(mali.G71MP8, cloud, clock, 42)
	dev, err := kbase.Probe(kbase.NewDirectBus(gpu, clock), kbase.NewStdKernel(clock), cloud)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := mlfw.NewRuntime(dev, clock, m, mlfw.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newSyncer(true, rt, cloud, gpumem.NewPool(size), nil, new(gpumem.Codec))
	t.Cleanup(s.release)
	return s
}

// referenceLayout builds the synchronization region list from scratch, as
// the syncer once did at every dump: the context's regions minus the
// page-table placeholder, then one pt@ pseudo-region per page-table page.
func referenceLayout(ctx *kbase.Context) []*gpumem.Region {
	var out []*gpumem.Region
	for _, r := range ctx.Regions() {
		if r.Kind != gpumem.KindPageTable {
			out = append(out, r)
		}
	}
	for _, pa := range ctx.PageTable().Pages() {
		out = append(out, &gpumem.Region{
			Name: fmt.Sprintf("pt@%x", pa), Kind: gpumem.KindPageTable,
			PA: pa, Size: gpumem.PageSize, Flags: gpumem.DefaultFlags(gpumem.KindPageTable),
		})
	}
	return out
}

// TestLayoutUnchangedAllocatesNothing gets the layout with the context and
// the page table unchanged since the last call, as every dump after a
// session's first does: it must allocate nothing, so neither the region list
// nor its fingerprint is built again.
func TestLayoutUnchangedAllocatesNothing(t *testing.T) {
	s := newLayoutSyncer(t)
	s.layout()
	if n := testing.AllocsPerRun(100, func() { s.layout() }); n != 0 {
		t.Fatalf("layout allocates %v times per call with nothing changed, want 0", n)
	}
}

// TestLayoutFollowsStructuralChanges runs a job's two dumps after each of a
// region allocated, a region freed with or without another allocated and
// the page table grown, and after steps that change nothing. The layout,
// the fingerprint each dump commits as its delta base, and the regions each
// dump captures must equal a from-scratch build.
func TestLayoutFollowsStructuralChanges(t *testing.T) {
	s := newLayoutSyncer(t)
	ctx := s.ctx
	alloc := func(name string) *gpumem.Region {
		r, err := ctx.Alloc(name, gpumem.KindCommands, 3*gpumem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var a, b *gpumem.Region
	steps := []struct {
		name   string
		change func()
	}{
		{"loaded", func() {}},
		{"unchanged", func() {}},
		{"region allocated", func() { a = alloc("extra-a") }},
		// As many regions as before, but not the same ones.
		{"region freed and another allocated", func() { b = alloc("extra-b"); ctx.Free(a) }},
		{"region freed", func() { ctx.Free(b) }},
		{"page table grown", func() {
			pa, err := s.toClient.from.AllocPages(1)
			if err != nil {
				t.Fatal(err)
			}
			// Far from every allocation, so the table gains new levels.
			if err := ctx.PageTable().Map(0x7f_0000_0000, pa, gpumem.PTERead); err != nil {
				t.Fatal(err)
			}
		}},
		{"unchanged again", func() {}},
	}
	pages := len(ctx.PageTable().Pages())
	for j, st := range steps {
		st.change()
		want := referenceLayout(ctx)
		wantFP := referenceFingerprint(want)
		check := func(d *direction) {
			t.Helper()
			got, fp := s.layout()
			if len(got) != len(want) {
				t.Fatalf("%s, %s: layout has %d regions, from scratch %d", st.name, d.name, len(got), len(want))
			}
			for i, r := range got {
				if *r != *want[i] {
					t.Fatalf("%s, %s: layout region %d is %+v, from scratch %+v", st.name, d.name, i, *r, *want[i])
				}
			}
			if fp != wantFP || d.fp != wantFP {
				t.Fatalf("%s, %s: layout fingerprint %q and delta base %q, from scratch %q",
					st.name, d.name, fp, d.fp, wantFP)
			}
			var meta []*gpumem.Region
			for _, r := range want {
				if r.Kind.Metastate() {
					meta = append(meta, r)
				}
			}
			snap := d.cap.Prev()
			if len(snap.Regions) != len(meta) {
				t.Fatalf("%s, %s: the dump captured %d regions, from scratch %d", st.name, d.name, len(snap.Regions), len(meta))
			}
			for i, r := range snap.Regions {
				m := meta[i]
				if r.Name != m.Name || r.Kind != m.Kind || r.VA != m.VA || r.PA != m.PA || uint64(len(r.Data)) != m.Size {
					t.Fatalf("%s, %s: the dump captured %s at %#x (%d bytes), from scratch %s at %#x (%d bytes)",
						st.name, d.name, r.Name, r.PA, len(r.Data), m.Name, m.PA, m.Size)
				}
			}
		}
		if _, err := s.beforeJob(j); err != nil {
			t.Fatal(err)
		}
		check(&s.toClient)
		if _, err := s.afterJob(j); err != nil {
			t.Fatal(err)
		}
		check(&s.toCloud)
	}
	if err := s.settle(); err != nil {
		t.Fatal(err)
	}
	if len(ctx.PageTable().Pages()) == pages {
		t.Fatal("no step grew the page table")
	}
}
