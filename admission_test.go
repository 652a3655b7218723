package gpurelay

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// recordEntryPoints drives each public record entry point on MNIST and
// returns only its error: the table the admission invariants run over.
var recordEntryPoints = []struct {
	name   string
	record func(c *Client, svc *Service) error
}{
	{"RecordContext", func(c *Client, svc *Service) error {
		_, _, err := c.RecordContext(context.Background(), svc, MNIST(), RecordOptions{})
		return err
	}},
	{"RecordCachedContext", func(c *Client, svc *Service) error {
		_, _, _, err := c.RecordCachedContext(context.Background(), svc, MNIST(), RecordOptions{})
		return err
	}},
	{"RecordSegmentedContext", func(c *Client, svc *Service) error {
		_, _, err := c.RecordSegmentedContext(context.Background(), svc, MNIST(), RecordOptions{})
		return err
	}},
	{"RecordResumable", func(c *Client, svc *Service) error {
		_, _, err := c.RecordResumable(context.Background(), svc, MNIST(), ResilienceOptions{})
		return err
	}},
}

// TestEveryRecordEntryPointAttests: whichever entry point a client records
// through, on one admission pool or on shards, a VM whose measurement is not
// the one the client expects is refused with ErrAttestation. The refused VM
// is released and nothing reaches the recording cache.
func TestEveryRecordEntryPointAttests(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, ep := range recordEntryPoints {
			t.Run(fmt.Sprintf("%s/shards=%d", ep.name, shards), func(t *testing.T) {
				svc := NewServiceWith(ServiceConfig{Shards: shards})
				// The client derives its expected measurement from svc.image;
				// the VMs still boot the original image, whose stack differs.
				img := *svc.image
				img.Stack += "+unattested"
				svc.image = &img
				err := ep.record(NewClient("attest-phone", MaliG71MP8), svc)
				if !errors.Is(err, ErrAttestation) {
					t.Fatalf("err = %v, want ErrAttestation", err)
				}
				if n := svc.ActiveVMs(); n != 0 {
					t.Fatalf("%d VMs still held after a refused attestation", n)
				}
				if entries, _, _ := svc.CacheStats(); entries != 0 {
					t.Fatalf("%d recordings cached from an unattested VM", entries)
				}
			})
		}
	}
}

// holdShard takes the only VM slot of model's shard on svc, so the next
// admission for that workload sheds. The returned func releases the slot.
func holdShard(t *testing.T, svc *Service, model *Model) func() {
	t.Helper()
	compat, err := NewClient("shard-holder", MaliG71MP8).compatible()
	if err != nil {
		t.Fatal(err)
	}
	vm, err := svc.acquireVM(context.Background(), svc.cacheKeyFor(MaliG71MP8, model).Hash(),
		"shard-holder", compat, []byte("shard-holder-nonce"))
	if err != nil {
		t.Fatalf("holding the shard: %v", err)
	}
	return func() { svc.releaseVM(vm) }
}
