package gpurelay

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"gpurelay/internal/cloud"
	"gpurelay/internal/obs"
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
	vm, err := svc.pool.Acquire(context.Background(), nil, cloud.Request{Key: svc.cacheKeyFor(MaliG71MP8, model).Hash(),
		ClientID: "shard-holder", GPU: compat, Nonce: []byte("shard-holder-nonce")})
	if err != nil {
		t.Fatalf("holding the shard: %v", err)
	}
	return func() { svc.pool.Release(vm) }
}

// TestSaturatedPoolDegradesHealth: a full partition sheds at every shard
// count, one included, and shedding is load signal the operator sees. After
// a record is shed, the fleet health rollup is degraded with the shed
// reason, and grt_shard_shed_total counts every rejection on its shard: the
// first admission and each of the maxShedRetries re-admissions.
func TestSaturatedPoolDegradesHealth(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svc := NewServiceWith(ServiceConfig{Shards: shards, Capacity: 1, QueueLimit: -1})
			release := holdShard(t, svc, MNIST())
			defer release()
			_, _, err := NewClient("shed-phone", MaliG71MP8).Record(svc, MNIST(), RecordOptions{})
			if !errors.Is(err, ErrCapacity) {
				t.Fatalf("saturated record: %v, want ErrCapacity", err)
			}
			rep := svc.Health()
			shedReason := false
			for _, r := range rep.Reasons {
				shedReason = shedReason || strings.Contains(r, "shed by saturated shards")
			}
			if rep.State != HealthDegraded || !shedReason {
				t.Fatalf("health after a shed record: %s %q, want degraded by the shed", rep.State, rep.Reasons)
			}
			var shed *SheddingError
			if !errors.As(err, &shed) {
				t.Fatalf("saturated record: %v, want a *SheddingError", err)
			}
			shard := obs.L("shard", strconv.Itoa(shed.Shard))
			if got := svc.Metrics().Counter(obs.MShardShed, shard); got != 1+maxShedRetries {
				t.Fatalf("grt_shard_shed_total{shard=%q} = %d, want %d", shard.Value, got, 1+maxShedRetries)
			}
		})
	}
}
