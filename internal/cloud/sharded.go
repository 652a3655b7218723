// Sharded admission: N SessionManager partitions under consistent hashing
// on the recording cache key. One admission queue in front of one pool is a
// single convoy at fleet scale — 10k clients contending on one mutex and
// one FIFO. Sharding by cache key keeps every request for the same
// (SKU, stack, workload, input shape) on the same partition, which is what
// makes the cache-first path compose: the singleflight leader and all of
// its followers land on one shard, so a workload's first record occupies
// exactly one shard's slot while the other shards serve unrelated keys.
package cloud

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"gpurelay/internal/grterr"
	"gpurelay/internal/obs"
	"gpurelay/internal/timesim"
)

// ShardedConfig tunes a ShardedService.
type ShardedConfig struct {
	// Shards is the partition count (0 → 1).
	Shards int
	// Shard configures every partition's SessionManager (pool capacity,
	// queue limit, per-client limit). The zero value takes the
	// SessionConfig defaults.
	Shard SessionConfig
}

const (
	// virtualNodes is the number of ring positions per shard. More
	// positions smooth the key distribution across shards.
	virtualNodes = 64
	// shedRetryBase scales the retry-after hint attached to a shedding
	// rejection. The hint grows with the rejecting shard's queue depth, so a
	// deeply backed-up shard pushes retries further out.
	shedRetryBase = 250 * time.Millisecond
)

// SheddingError is a typed per-shard load-shedding rejection: the shard's
// pool and queue are both full. It unwraps to grterr.ErrShedding, which
// marks the typed rejection, and to grterr.ErrCapacity, which every full
// pool reports, and carries a deterministic retry-after hint derived from
// the shard's queue depth.
type SheddingError struct {
	// Shard is the rejecting partition.
	Shard int
	// RetryAfter is when the client should try this shard again. The cache
	// key pins the workload to its shard, so failing over is not an option.
	RetryAfter time.Duration
	// Busy and Queued snapshot the shard at rejection time.
	Busy, Queued int
}

func (e *SheddingError) Error() string {
	return fmt.Sprintf("cloud: shard %d shedding load (%d VMs busy, %d queued), retry after %s: %s",
		e.Shard, e.Busy, e.Queued, e.RetryAfter, grterr.ErrShedding)
}

// Unwrap lets errors.Is match a shed admission as both grterr.ErrShedding
// and grterr.ErrCapacity.
func (e *SheddingError) Unwrap() []error { return []error{grterr.ErrShedding, grterr.ErrCapacity} }

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	pos   uint64
	shard int
}

// ShardedService partitions admission across N SessionManagers, each
// fronting its own Service (own VM namespace, shared image definition),
// with consistent hashing on the cache key selecting the partition.
type ShardedService struct {
	image  *Image
	svcs   []*Service
	mgrs   []*SessionManager
	ring   []ringPoint
	labels []obs.Label // memoized {shard: i} labels

	mu      sync.Mutex
	reg     *obs.Registry
	flight  *obs.FlightRecorder
	timeSrc timesim.Source
	vmShard map[*VM]int
}

// NewShardedService builds cfg.Shards partitions (at least one) hosting the
// image.
func NewShardedService(img *Image, cfg ShardedConfig) *ShardedService {
	s := &ShardedService{image: img, vmShard: map[*VM]int{}}
	for i := 0; i < max(cfg.Shards, 1); i++ {
		svc := NewService(img)
		// Namespace device IDs per shard ("s2/gpu-01") so one fleet
		// registry carries distinct per-device health series.
		svc.SetDevicePrefix("s" + strconv.Itoa(i) + "/")
		s.svcs = append(s.svcs, svc)
		s.mgrs = append(s.mgrs, NewSessionManager(svc, cfg.Shard))
		s.labels = append(s.labels, obs.L("shard", strconv.Itoa(i)))
		for j := 0; j < virtualNodes; j++ {
			s.ring = append(s.ring, ringPoint{pos: ringPos(i, j), shard: i})
		}
	}
	sort.Slice(s.ring, func(a, b int) bool { return s.ring[a].pos < s.ring[b].pos })
	return s
}

// ringPos derives one virtual node's deterministic ring position.
func ringPos(shard, vnode int) uint64 {
	var buf [32]byte
	copy(buf[:], "grt-shard-ring/1")
	binary.LittleEndian.PutUint32(buf[16:], uint32(shard))
	binary.LittleEndian.PutUint32(buf[20:], uint32(vnode))
	sum := sha256.Sum256(buf[:24])
	return binary.BigEndian.Uint64(sum[:8])
}

// NumShards returns the partition count.
func (s *ShardedService) NumShards() int { return len(s.mgrs) }

// Image returns the image definition every partition hosts.
func (s *ShardedService) Image() *Image { return s.image }

// Manager returns shard i's admission controller.
func (s *ShardedService) Manager(i int) *SessionManager { return s.mgrs[i] }

// Shard maps a cache-key hash to its partition: the first ring position at
// or clockwise after the key's point, wrapping at the top.
func (s *ShardedService) Shard(key [32]byte) int {
	x := binary.BigEndian.Uint64(key[:8])
	i := sort.Search(len(s.ring), func(i int) bool { return s.ring[i].pos >= x })
	if i == len(s.ring) {
		i = 0
	}
	return s.ring[i].shard
}

// Instrument attaches a fleet registry. Admission counters and the wait
// histogram aggregate across shards into unlabeled families — the fleet
// rollup stays one surface — while pool gauges get a {shard} label so
// partitions don't clobber each other.
func (s *ShardedService) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	s.reg = reg
	s.mu.Unlock()
	for i, m := range s.mgrs {
		m.InstrumentShard(reg, s.labels[i])
	}
}

// InstrumentFlight attaches a flight recorder to every shard's admission
// journal and to the shed path.
func (s *ShardedService) InstrumentFlight(f *obs.FlightRecorder) {
	s.mu.Lock()
	s.flight = f
	s.mu.Unlock()
	for _, m := range s.mgrs {
		m.InstrumentFlight(f)
	}
}

// SetTimeSource measures every shard's admission waits (and shed events) on
// the given virtual timeline.
func (s *ShardedService) SetTimeSource(src timesim.Source) {
	s.mu.Lock()
	s.timeSrc = src
	s.mu.Unlock()
	for _, m := range s.mgrs {
		m.SetTimeSource(src)
	}
}

// Acquire routes one admission to the key's shard. On success the VM is
// tracked so Release/Crash route back without the caller carrying the shard
// index. A shard at capacity rejects with a *SheddingError (unwrapping to
// grterr.ErrShedding and grterr.ErrCapacity) carrying the retry-after hint;
// other errors pass through unchanged.
func (s *ShardedService) Acquire(ctx context.Context, key [32]byte, clientID, gpuCompatible string, clientNonce []byte) (*VM, error) {
	shard := s.Shard(key)
	s.mu.Lock()
	reg, flight, src := s.reg, s.flight, s.timeSrc
	s.mu.Unlock()
	if reg != nil {
		reg.Add(obs.MShardRequests, 1, s.labels[shard])
	}
	m := s.mgrs[shard]
	vm, err := m.Acquire(ctx, clientID, s.image.Name, gpuCompatible, clientNonce)
	if err != nil {
		if errors.Is(err, grterr.ErrCapacity) {
			queued := m.Queued()
			shed := &SheddingError{
				Shard:      shard,
				RetryAfter: shedRetryBase * time.Duration(queued+1),
				Busy:       m.Config().Capacity,
				Queued:     queued,
			}
			if reg != nil {
				reg.Add(obs.MShardShed, 1, s.labels[shard])
			}
			if flight != nil {
				var vt time.Duration
				if src != nil {
					vt = src.Now()
				}
				flight.Emit(vt, clientID, obs.FKShardShed, "",
					obs.A("shard", int64(shard)), obs.A("retry_after_ns", int64(shed.RetryAfter)))
			}
			return nil, shed
		}
		return nil, err
	}
	s.mu.Lock()
	s.vmShard[vm] = shard
	s.mu.Unlock()
	return vm, nil
}

// Release returns a VM to its shard. Unknown or double-released VMs are
// no-ops, matching SessionManager.Release.
func (s *ShardedService) Release(vm *VM) {
	if m := s.takeShard(vm); m != nil {
		m.Release(vm)
	}
}

// Crash tears down a VM whose session was lost, counting a crash on its
// shard.
func (s *ShardedService) Crash(vm *VM) {
	if m := s.takeShard(vm); m != nil {
		m.Crash(vm)
	}
}

func (s *ShardedService) takeShard(vm *VM) *SessionManager {
	s.mu.Lock()
	defer s.mu.Unlock()
	shard, ok := s.vmShard[vm]
	if !ok {
		return nil
	}
	delete(s.vmShard, vm)
	return s.mgrs[shard]
}

// ActiveVMs totals live recording VMs across shards.
func (s *ShardedService) ActiveVMs() int {
	var n int
	for _, m := range s.mgrs {
		n += m.ActiveVMs()
	}
	return n
}

// Devices snapshots the device inventory of every shard, shard order.
func (s *ShardedService) Devices() []DeviceInfo {
	var out []DeviceInfo
	for _, svc := range s.svcs {
		out = append(out, svc.Devices()...)
	}
	return out
}

// Queued totals waiting admissions across shards.
func (s *ShardedService) Queued() int {
	var n int
	for _, m := range s.mgrs {
		n += m.Queued()
	}
	return n
}

// TotalCapacity totals pool slots across shards.
func (s *ShardedService) TotalCapacity() int {
	var n int
	for _, m := range s.mgrs {
		n += m.Config().Capacity
	}
	return n
}
