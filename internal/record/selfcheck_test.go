package record

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gpurelay/internal/ckpt"
	"gpurelay/internal/faultsim"
	"gpurelay/internal/gpumem"
	"gpurelay/internal/grterr"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
)

var errCheckFailed = errors.New("injected self-check failure")

// failingCodec is the session's gpumem.Codec with the self-check of its
// fail-th dump received (counting from 1), and of every later one, failing;
// 0 fails none. The failure shows through Settle alone, the latest a
// failed check can surface, so a session that drops a settle point carries
// it past that point. pending is set by a receive and cleared by Settle.
type failingCodec struct {
	gpumem.Codec
	fail, received int
	pending        bool
}

func (f *failingCodec) Receive(data []byte, img *gpumem.Snapshot) (*gpumem.Snapshot, error) {
	f.received++
	f.pending = true
	return f.Codec.Receive(data, img)
}

// Release settles through Settle, so pending records the settle.
func (f *failingCodec) Release() {
	_ = f.Settle()
	f.Codec.Release()
}

func (f *failingCodec) Settle() error {
	f.pending = false
	if err := f.Codec.Settle(); err != nil {
		return err
	}
	if f.fail > 0 && f.received >= f.fail {
		return errCheckFailed
	}
	return nil
}

// TestSelfCheckSettlePoints fails the self-check of one MNIST dump and
// checks the session's three settle points. A session receives two dumps
// per job: the cloud→client one before it, the client→cloud one after it.
//
//   - checkpoint: the check of job 5's first dump fails. The session must
//     fail naming job 5, and hand no checkpoint of job 5 or later to
//     OnCheckpoint.
//   - sign: the check of the last dump fails. The session must fail naming
//     the last job, with nothing signed.
//   - release: a VM crash after job 3 loses the session in a panic while
//     the check of job 3's dump is in flight. The session must not return
//     before the check settles.
//
// A session whose checks pass records as before, and settles too.
func TestSelfCheckSettlePoints(t *testing.T) {
	config := func() Config {
		return Config{
			Variant: OursMDS, Model: mlfw.MNIST(), SKU: mali.G71MP8,
			Network: netsim.WiFi, SessionKey: testKey,
			ClientSeed: 42, InjectMispredictionAt: -1,
		}
	}
	const jobs = 23 // MNIST's
	for _, tc := range []struct {
		name       string
		fail       int    // the dump whose check fails
		checkpoint bool   // take a checkpoint at every job
		plan       string // the session's fault plan
		want       string // in the session's error
		lastCkpt   int    // the last checkpoint's job
	}{
		{name: "pass", checkpoint: true, lastCkpt: jobs - 1},
		{name: "checkpoint", fail: 2*5 + 1, checkpoint: true, want: "job 5:", lastCkpt: 4},
		{name: "sign", fail: 2 * jobs, want: "job 22:", lastCkpt: -1},
		{name: "release", plan: "crash@job3", lastCkpt: -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config()
			lastCkpt := -1
			if tc.checkpoint {
				cfg.OnCheckpoint = func(cp *ckpt.Checkpoint) { lastCkpt = cp.Job }
			}
			if tc.plan != "" {
				plan, err := faultsim.ParsePlan(tc.plan)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = plan.Start(1)
			}
			f := &failingCodec{fail: tc.fail}
			res, err := run(context.Background(), cfg, f)
			switch {
			case tc.plan != "":
				if !errors.Is(err, grterr.ErrSessionLost) {
					t.Fatalf("session error %v, want a lost session", err)
				}
			case tc.want == "":
				if err != nil || res.Stats.Jobs != jobs {
					t.Fatalf("session error %v", err)
				}
			case !errors.Is(err, errCheckFailed) || !strings.Contains(err.Error(), tc.want) || res != nil:
				t.Fatalf("session error %v, want the failed check of the dump of %q", err, tc.want)
			}
			if f.received == 0 || f.pending {
				t.Fatalf("the session returned with %d dumps received and a check in flight: %v", f.received, f.pending)
			}
			if lastCkpt != tc.lastCkpt {
				t.Fatalf("the last checkpoint is job %d's, want job %d's", lastCkpt, tc.lastCkpt)
			}
		})
	}
}
